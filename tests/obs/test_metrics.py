"""Tests for the metrics registry: snapshot round-trip and merging."""

import json

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)


def test_counter_gauge_histogram_basics():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5

    gauge = Gauge()
    gauge.set(7.0)
    gauge.set(3.0)
    assert gauge.value == 3.0
    assert gauge.high == 7.0

    hist = Histogram(bounds=(1.0, 10.0))
    for sample in (0.5, 5.0, 50.0):
        hist.observe(sample)
    assert hist.count == 3
    assert hist.buckets == [1, 1, 1]
    assert hist.min == 0.5 and hist.max == 50.0
    assert hist.mean == (0.5 + 5.0 + 50.0) / 3


def test_snapshot_is_json_safe_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z.count").inc()
    registry.gauge("a.gauge").set(1.5)
    registry.histogram("m.hist").observe(0.01)
    snap = registry.snapshot()
    assert list(snap) == sorted(snap)
    round_tripped = json.loads(json.dumps(snap))
    assert round_tripped == snap
    assert round_tripped["z.count"]["kind"] == "counter"


def test_merge_snapshot_round_trip():
    worker = MetricsRegistry()
    worker.counter("retries").inc(2)
    worker.gauge("depth").set(4.0)
    worker.histogram("lat").observe(0.3)
    shipped = json.loads(json.dumps(worker.snapshot()))

    parent = MetricsRegistry()
    parent.counter("retries").inc(1)
    parent.gauge("depth").set(9.0)
    parent.histogram("lat").observe(1.1)
    parent.merge_snapshot(shipped)

    snap = parent.snapshot()
    assert snap["retries"]["value"] == 3
    assert snap["depth"]["value"] == 4.0  # latest write wins
    assert snap["depth"]["high"] == 9.0
    assert snap["lat"]["count"] == 2
    assert snap["lat"]["min"] == 0.3 and snap["lat"]["max"] == 1.1


def test_merge_snapshot_creates_missing_instruments():
    parent = MetricsRegistry()
    parent.merge_snapshot({"fresh": {"kind": "counter", "value": 5.0},
                           "junk": "not-a-dict",
                           "odd": {"kind": "mystery", "value": 1}})
    assert parent.snapshot() == {"fresh": {"kind": "counter", "value": 5.0}}


def test_global_registry_reset():
    reset_metrics()
    get_metrics().counter("x").inc()
    assert len(get_metrics()) == 1
    reset_metrics()
    assert len(get_metrics()) == 0

