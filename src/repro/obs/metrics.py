"""In-process metrics registry: counters, gauges, and histograms.

The registry is a plain dictionary of named instruments that any layer
can bump without caring whether anyone is watching; snapshots serialize
to JSON-safe dicts and merge across processes, so a sweep parent can
fold the registries shipped back from pool workers into the run
manifest.  Like the tracer, metrics only observe: nothing here may feed
back into fingerprints, artifacts, or results.

Instruments:

``Counter``
    Monotonic float/int accumulator (``inc``).  Merge = sum.
``Gauge``
    Last-written value plus the max seen (``set``).  Merge = latest
    write wins for ``value``, max for ``high``.
``Histogram``
    Streaming count/sum/min/max plus fixed log-ish buckets — enough for
    latency percentiles without storing samples.  Merge = pointwise sum
    (min/max combine).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
]

# Bucket upper bounds (seconds or unitless); the final bucket is +inf.
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


class Counter:
    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge(self, other: dict) -> None:
        self.value += other.get("value", 0.0)


class Gauge:
    __slots__ = ("value", "high")

    kind = "gauge"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value
        self.high = value

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high:
            self.high = value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "high": self.high}

    def merge(self, other: dict) -> None:
        self.value = other.get("value", self.value)
        self.high = max(self.high, other.get("high", self.high))


class Histogram:
    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, other: dict) -> None:
        bounds = tuple(other.get("bounds", ()))
        buckets = other.get("buckets", [])
        if bounds == self.bounds and len(buckets) == len(self.buckets):
            self.buckets = [a + b for a, b in zip(self.buckets, buckets)]
        self.count += other.get("count", 0)
        self.total += other.get("total", 0.0)
        for attr, pick in (("min", min), ("max", max)):
            theirs = other.get(attr)
            if theirs is None:
                continue
            ours = getattr(self, attr)
            setattr(self, attr, theirs if ours is None else pick(ours, theirs))


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Named instruments with lazy creation and cross-process merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, cls())
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """JSON-safe ``{name: instrument_dict}`` sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.to_dict() for name, inst in items}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, payload in snapshot.items():
            if not isinstance(payload, dict):
                continue
            cls = _KINDS.get(payload.get("kind"))
            if cls is None:
                continue
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None or instrument.kind != payload["kind"]:
                    instrument = cls()
                    self._instruments[name] = instrument
            instrument.merge(payload)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry (always live; snapshotting is opt-in)."""
    return _GLOBAL


def reset_metrics() -> None:
    """Drop all instruments in the process-global registry."""
    _GLOBAL.clear()
