"""Throughput heartbeats sampled from inside long simulation loops.

A :class:`HeartbeatEmitter` is fed by the BBV profiler at each interval
close and, as one of its observers, by the detailed core's run loop.
Call sites invoke it with their current progress counter; the emitter
rate-limits on wall time, computes the instantaneous rate, and emits a
``hb`` trace event.  It strictly observes — it never changes loop
boundaries or iteration counts, which is what keeps traced artifacts
byte-identical (splitting a run into chunks would perturb dynamic
basic-block formation in the profiled executor and retire overshoot in
the core; the emitter exists so we never have to chunk).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .tracer import NULL_TRACER, NullTracer, Tracer, heartbeat_interval

__all__ = ["HeartbeatEmitter"]


class HeartbeatEmitter:
    """Rate-limited progress sampler emitting ``hb`` trace events.

    ``name`` is the metric stream (``functional.instr`` /
    ``core.cycles``); ``units`` names the counter's unit in the event.
    Extra ``attrs`` (workload, stage, checkpoint index...) ride along on
    every sample so consumers can group streams.
    """

    __slots__ = ("tracer", "name", "units", "attrs", "interval",
                 "_clock", "_last_time", "_last_value", "_finished",
                 "total")

    def __init__(self, tracer: Tracer | NullTracer, name: str, *,
                 units: str = "instructions",
                 interval: float | None = None,
                 total: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 **attrs: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.units = units
        self.attrs = attrs
        self.interval = heartbeat_interval() if interval is None else interval
        self.total = total
        self._clock = clock
        self._last_time = clock()
        self._last_value = 0
        self._finished = False

    def __call__(self, value: int, cycles: int | None = None,
                 **extra: Any) -> None:
        """Record progress; emits at most one event per interval.

        Takes the detailed core's observer arguments, ``(retired,
        cycles)``; ``cycles``, when given, rides along on the event.
        """
        if self._finished:
            # A sample arriving after finish() would put a non-final
            # event behind the terminal one on the stream; drop it.
            return
        now = self._clock()
        elapsed = now - self._last_time
        if elapsed < self.interval:
            return
        rate = (value - self._last_value) / elapsed if elapsed > 0 else 0.0
        self._last_time = now
        self._last_value = value
        attrs = {"units": self.units, "value": value, "rate": rate}
        if self.total:
            attrs["total"] = self.total
        attrs.update(self.attrs)
        if cycles is not None:
            attrs["cycles"] = cycles
        attrs.update(extra)
        self.tracer.heartbeat(self.name, **attrs)

    def finish(self, value: int, **extra: Any) -> None:
        """Emit the terminal sample exactly once, rate limit or not.

        The final value must always reach the stream even when it lands
        inside the rate-limit window of the previous sample, and it must
        reach it only once: repeated ``finish()`` calls (retry paths,
        ``finally`` blocks stacked on explicit finishes) are no-ops, and
        any straggling ``__call__`` afterwards is dropped so consumers
        can treat ``final: True`` as end-of-stream.
        """
        if self._finished:
            return
        self._finished = True
        now = self._clock()
        elapsed = now - self._last_time
        rate = ((value - self._last_value) / elapsed) if elapsed > 0 else 0.0
        self._last_time = now
        self._last_value = value
        attrs = {"units": self.units, "value": value, "rate": rate,
                 "final": True}
        if self.total:
            attrs["total"] = self.total
        attrs.update(self.attrs)
        attrs.update(extra)
        self.tracer.heartbeat(self.name, **attrs)
