"""Unit tests for the content-addressed artifact store."""

import json
from pathlib import Path

import pytest

from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.stages import STAGE_ORDER


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def test_fingerprint_is_stable_across_stores_and_runs():
    params = {"workload": "sha", "scale": 0.1, "seed": 17}
    a = ArtifactStore(None).fingerprint("bbv_profile", params)
    b = ArtifactStore(None).fingerprint("bbv_profile", dict(params))
    assert a == b
    # pinned: a change here means every existing cache silently expires,
    # which must be a deliberate ARTIFACT_FORMAT bump, not an accident
    assert a == "4e989354e32bffe3903051f8"


def test_fingerprint_independent_of_key_order():
    store = ArtifactStore(None)
    forward = store.fingerprint("s", {"a": 1, "b": 2, "c": [3, 4]})
    reverse = store.fingerprint("s", {"c": [3, 4], "b": 2, "a": 1})
    assert forward == reverse


def test_fingerprint_changes_with_any_parameter():
    store = ArtifactStore(None)
    base = store.fingerprint("s", {"a": 1, "b": 2})
    assert store.fingerprint("s", {"a": 1, "b": 3}) != base
    assert store.fingerprint("s", {"a": 1}) != base
    assert store.fingerprint("other", {"a": 1, "b": 2}) != base


def test_fingerprint_normalizes_containers():
    store = ArtifactStore(None)
    assert store.fingerprint("s", {"v": (1, 2)}) == \
        store.fingerprint("s", {"v": [1, 2]})
    assert store.fingerprint("s", {"v": {2, 1}}) == \
        store.fingerprint("s", {"v": [1, 2]})
    assert store.fingerprint("s", {"p": Path("/tmp/x")}) == \
        store.fingerprint("s", {"p": "/tmp/x"})


def test_fingerprint_rejects_unserializable_parameters():
    with pytest.raises(TypeError, match="not.*fingerprintable"):
        ArtifactStore(None).fingerprint("s", {"f": lambda: None})


# ----------------------------------------------------------------------
# hit/miss accounting
# ----------------------------------------------------------------------

def test_fetch_json_counts_miss_then_hits(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []
    for _ in range(3):
        value = store.fetch_json("stage", "fp1",
                                 compute=lambda: calls.append(1) or {"x": 1})
    assert value == {"x": 1}
    assert len(calls) == 1
    stats = store.stats()["stage"]
    assert (stats.misses, stats.executions, stats.hits) == (1, 1, 2)


def test_fetch_json_disk_hit_in_fresh_process(tmp_path):
    producer = ArtifactStore(tmp_path)
    producer.fetch_json("stage", "fp1", compute=lambda: {"x": 1})
    consumer = ArtifactStore(tmp_path)
    value = consumer.fetch_json(
        "stage", "fp1",
        compute=lambda: pytest.fail("must not recompute"))
    assert value == {"x": 1}
    stats = consumer.stats()["stage"]
    assert (stats.hits, stats.misses) == (1, 0)


def test_memory_only_store_recomputes_across_instances():
    first = ArtifactStore(None)
    first.fetch_json("stage", "fp1", compute=lambda: {"x": 1})
    second = ArtifactStore(None)
    assert second.fetch_json("stage", "fp1",
                             compute=lambda: {"x": 2}) == {"x": 2}


def test_peek_counts_hit_but_never_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.peek_json("stage", "absent") is None
    assert "stage" not in store.stats() or \
        store.stats()["stage"].lookups == 0
    store.put_json("stage", "fp1", {"x": 1})
    assert store.peek_json("stage", "fp1") == {"x": 1}
    assert store.stats()["stage"].hits == 1


def test_stats_merge_from_worker_dict(tmp_path):
    parent = ArtifactStore(tmp_path)
    worker = ArtifactStore(tmp_path)
    worker.fetch_json("stage", "fp1", compute=lambda: {"x": 1})
    parent.merge_stats(worker.stats_dict())
    assert parent.stats()["stage"].executions == 1


# ----------------------------------------------------------------------
# corruption handling
# ----------------------------------------------------------------------

def test_truncated_json_recomputes_without_crashing(tmp_path):
    store = ArtifactStore(tmp_path)
    store.fetch_json("stage", "fp1", compute=lambda: {"x": 1})
    path = tmp_path / "stage" / "fp1.json"
    path.write_text(path.read_text()[:4])

    fresh = ArtifactStore(tmp_path)
    value = fresh.fetch_json("stage", "fp1", compute=lambda: {"x": 2})
    assert value == {"x": 2}
    stats = fresh.stats()["stage"]
    assert (stats.corrupt, stats.executions) == (1, 1)
    # the recomputed artifact replaced the corrupt one on disk
    assert json.loads(path.read_text()) == {"x": 2}


def test_garbage_json_recomputes_without_crashing(tmp_path):
    store = ArtifactStore(tmp_path)
    (tmp_path / "stage").mkdir()
    (tmp_path / "stage" / "fp1.json").write_text("not json at all {{{")
    value = store.fetch_json("stage", "fp1", compute=lambda: {"x": 3})
    assert value == {"x": 3}
    assert store.stats()["stage"].corrupt == 1


def test_decode_error_counts_as_corrupt(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put_json("stage", "fp1", {"x": 1})
    fresh = ArtifactStore(tmp_path)
    value = fresh.fetch_json("stage", "fp1",
                             compute=lambda: "recomputed",
                             decode=lambda payload: payload["missing"])
    assert value == "recomputed"
    assert fresh.stats()["stage"].corrupt == 1


def test_corrupt_dir_artifact_recomputes(tmp_path):
    def save(path, value):
        path.mkdir()
        (path / "data.txt").write_text(value)

    def load(path):
        return (path / "data.txt").read_text()

    store = ArtifactStore(tmp_path)
    store.fetch_dir("ckpt", "fp1", compute=lambda: "payload",
                    save=save, load=load)
    (tmp_path / "ckpt" / "fp1" / "data.txt").unlink()

    fresh = ArtifactStore(tmp_path)
    value = fresh.fetch_dir("ckpt", "fp1", compute=lambda: "recomputed",
                            save=save, load=load)
    assert value == "recomputed"
    stats = fresh.stats()["ckpt"]
    assert (stats.corrupt, stats.executions) == (1, 1)
    assert load(tmp_path / "ckpt" / "fp1") == "recomputed"


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------

def test_artifact_counts_and_invalidate(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put_json("a", "fp1", {"x": 1})
    store.put_json("a", "fp2", {"x": 2})
    store.put_json("b", "fp1", {"x": 3})
    counts = store.artifact_counts()
    assert counts["a"][0] == 2
    assert counts["b"][0] == 1

    assert store.invalidate_stage("a") == 2
    assert store.peek_json("a", "fp1") is None  # memory dropped too
    assert store.peek_json("b", "fp1") == {"x": 3}


def test_clear_removes_everything(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put_json("a", "fp1", {"x": 1})
    store.put_json("b", "fp2", {"x": 2})
    assert store.clear() == 2
    assert store.artifact_counts() == {}
    assert store.peek_json("a", "fp1") is None


def test_stage_order_covers_known_stages():
    assert STAGE_ORDER == ("bbv_profile", "simpoint_selection",
                          "checkpoints", "detailed_sim", "power_report",
                          "experiment_result")
