"""Tests for heartbeat emission, leveled logging, and log merging."""

import logging

from repro.obs.heartbeat import HeartbeatEmitter
from repro.obs.logs import (
    WorkerLogMerger,
    get_logger,
    setup_cli_logging,
    verbosity_level,
    worker_log_path,
)
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


def test_get_logger_namespaced():
    assert get_logger("repro.flow.sweep").name == "repro.flow.sweep"
    assert get_logger("other").name == "repro.other"


def test_worker_log_merger_tails_complete_lines(tmp_path):
    path = worker_log_path(tmp_path, pid=777)
    path.write_text("first line\n")
    merger = WorkerLogMerger(tmp_path)
    lines = merger.drain()
    assert lines == ["[worker 777] first line"]
    with open(path, "a") as handle:
        handle.write("second\npartial")  # no trailing newline yet
    assert merger.drain() == ["[worker 777] second"]
    with open(path, "a") as handle:
        handle.write(" done\n")
    assert merger.drain() == ["[worker 777] partial done"]
    assert merger.drain() == []
