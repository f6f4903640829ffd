"""Tests for heartbeat emission and leveled logging."""

import logging

from repro.obs.heartbeat import HeartbeatEmitter
from repro.obs.logs import setup_cli_logging, verbosity_level
from repro.obs.tracer import Tracer


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _sink_emitter(interval=1.0, **attrs):
    sink = []
    tracer = Tracer(sink=sink)
    clock = _FakeClock()
    emitter = HeartbeatEmitter(tracer, "core.instr", interval=interval,
                               clock=clock, **attrs)
    return emitter, sink, clock


def test_heartbeat_rate_limited():
    emitter, sink, clock = _sink_emitter(interval=1.0, total=100)
    emitter(10)            # 0.0s: inside the interval, suppressed
    clock.now = 0.5
    emitter(20)            # still suppressed
    clock.now = 1.5
    emitter(30)            # emitted
    beats = [r for r in sink if r["type"] == "hb"]
    assert len(beats) == 1
    assert beats[0]["attrs"]["value"] == 30
    assert beats[0]["attrs"]["total"] == 100
    assert beats[0]["attrs"]["rate"] == 30 / 1.5


def test_heartbeat_finish_bypasses_rate_limit():
    emitter, sink, clock = _sink_emitter(interval=100.0)
    emitter(10)
    emitter.finish(42, outcome="done")
    beats = [r for r in sink if r["type"] == "hb"]
    assert len(beats) == 1
    assert beats[0]["attrs"]["value"] == 42
    assert beats[0]["attrs"]["final"] is True
    assert beats[0]["attrs"]["outcome"] == "done"


def test_verbosity_levels():
    assert verbosity_level(quiet=True) == logging.ERROR
    assert verbosity_level() == logging.WARNING
    assert verbosity_level(1) == logging.INFO
    assert verbosity_level(2) == logging.DEBUG


def test_setup_cli_logging_idempotent_single_handler():
    first = setup_cli_logging(verbose=1)
    second = setup_cli_logging(verbose=0)
    assert first is second
    tagged = [h for h in second.handlers
              if getattr(h, "_repro_cli_handler", False)]
    assert len(tagged) == 1
