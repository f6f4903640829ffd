"""Tests for the sweep runner and its stage-granular artifact cache."""

import json

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import MODEL_VERSION, SweepRunner
from repro.pipeline.stages import RESULT_STAGE
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM

SETTINGS = FlowSettings(scale=0.1)


def _result_files(tmp_path):
    stage_dir = tmp_path / RESULT_STAGE
    if not stage_dir.exists():
        return []
    return sorted(stage_dir.glob("*.json"))


def test_memory_cache_returns_same_object(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    a = runner.run("qsort", MEDIUM_BOOM)
    b = runner.run("qsort", MEDIUM_BOOM)
    assert a is b


def test_disk_cache_roundtrip(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    original = runner.run("qsort", MEDIUM_BOOM)
    assert len(_result_files(tmp_path)) == 1

    fresh = SweepRunner(SETTINGS, cache_dir=tmp_path)
    loaded = fresh.run("qsort", MEDIUM_BOOM)
    assert loaded.ipc == pytest.approx(original.ipc)
    assert loaded.tile_mw == pytest.approx(original.tile_mw)
    # served from the result artifact: no stage re-executed anything
    assert all(stats.executions == 0
               for stats in fresh.store.stats().values())


def test_cache_key_distinguishes_configs(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run("qsort", MEDIUM_BOOM)
    runner.run("qsort", MEGA_BOOM)
    assert len(_result_files(tmp_path)) == 2


def test_cache_key_distinguishes_predictors(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run("qsort", MEDIUM_BOOM)
    runner.run("qsort", MEDIUM_BOOM.with_predictor("gshare"))
    assert len(_result_files(tmp_path)) == 2


@pytest.mark.parametrize("changed", [
    {"bic_threshold": 0.7},
    {"max_k": 4},
    {"coverage": 0.5},
])
def test_changed_selection_settings_miss_the_cache(tmp_path, changed):
    """Regression: the pre-pipeline cache key omitted ``bic_threshold``,
    ``max_k`` and ``coverage``, silently serving stale results when any
    of them changed.  Every stage fingerprint now covers them."""
    warm = SweepRunner(SETTINGS, cache_dir=tmp_path)
    warm.run("qsort", MEDIUM_BOOM)

    tweaked = FlowSettings(scale=SETTINGS.scale, **changed)
    fresh = SweepRunner(tweaked, cache_dir=tmp_path)
    fresh.run("qsort", MEDIUM_BOOM)
    result_stats = fresh.store.stats()[RESULT_STAGE]
    assert result_stats.misses == 1
    assert result_stats.executions == 1
    assert len(_result_files(tmp_path)) == 2


def test_no_cache_dir(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=None)
    result = runner.run("qsort", MEDIUM_BOOM)
    assert result.ipc > 0


def test_run_all_subset(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    results = runner.run_all(configs=(MEDIUM_BOOM,),
                             workloads=["qsort", "sha"])
    assert set(results) == {("qsort", "MediumBOOM"), ("sha", "MediumBOOM")}


def test_run_all_accepts_any_config_iterable(tmp_path):
    """A generated design-space axis is just an iterable of configs."""
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    results = runner.run_all(
        configs=(config for config in (MEDIUM_BOOM,)),
        workloads=["qsort"])
    assert set(results) == {("qsort", "MediumBOOM")}


def test_run_all_sweeps_generated_lattice_points(tmp_path):
    from repro.uarch.space import DesignSpace

    space = DesignSpace.around(MEDIUM_BOOM)
    point = space.apply({"rob_entries": 48})
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    results = runner.run_all(configs=[MEDIUM_BOOM, point],
                             workloads=["qsort"])
    assert set(results) == {("qsort", "MediumBOOM"),
                            ("qsort", point.name)}
    assert point.name.startswith("dse-")


def test_run_all_rejects_duplicate_names(tmp_path):
    import dataclasses

    clone = dataclasses.replace(MEDIUM_BOOM, rob_entries=48,
                                name=MEDIUM_BOOM.name)
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="unique names"):
        runner.run_all(configs=(MEDIUM_BOOM, clone),
                       workloads=["qsort"])


def test_shared_stages_run_once_per_workload(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM, MEGA_BOOM),
                   workloads=["qsort", "sha"])
    manifest = runner.last_manifest
    assert manifest.executions("bbv_profile") == 2
    assert manifest.executions("simpoint_selection") == 2
    assert manifest.executions("checkpoints") == 2
    assert manifest.executions("detailed_sim") == 4


def test_parallel_run_all_is_bit_identical_to_serial(tmp_path):
    """The satellite determinism guarantee: ``jobs=2`` must produce
    byte-identical canonical JSON to the serial run, on a 2-workload x
    2-config sweep."""
    serial = SweepRunner(SETTINGS, cache_dir=None)
    expected = serial.run_all(configs=(MEDIUM_BOOM, MEGA_BOOM),
                              workloads=["qsort", "sha"])
    parallel = SweepRunner(SETTINGS, cache_dir=tmp_path)
    actual = parallel.run_all(configs=(MEDIUM_BOOM, MEGA_BOOM),
                              workloads=["qsort", "sha"], jobs=2)
    assert set(actual) == set(expected)
    for key in expected:
        assert actual[key].to_json() == expected[key].to_json()
    # the parallel path populated the disk cache too
    assert len(_result_files(tmp_path)) == 4


def test_parallel_without_disk_matches_serial():
    serial = SweepRunner(SETTINGS, cache_dir=None)
    expected = serial.run_all(configs=(MEDIUM_BOOM,),
                              workloads=["qsort", "sha"])
    parallel = SweepRunner(SETTINGS, cache_dir=None)
    actual = parallel.run_all(configs=(MEDIUM_BOOM,),
                              workloads=["qsort", "sha"], jobs=2)
    for key in expected:
        assert actual[key].to_json() == expected[key].to_json()


def test_parallel_uses_cache(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run("qsort", MEDIUM_BOOM)
    results = runner.run_all(configs=(MEDIUM_BOOM,),
                             workloads=["qsort"], jobs=2)
    assert ("qsort", "MediumBOOM") in results
    assert runner.last_manifest.total_executions == 0


def test_run_all_writes_manifest(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"])
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["experiments"] == 1
    assert manifest["stages"][RESULT_STAGE]["executions"] == 1


def test_cached_json_is_valid(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run("qsort", MEDIUM_BOOM)
    path = _result_files(tmp_path)[0]
    data = json.loads(path.read_text())
    assert data["workload"] == "qsort"
    assert data["runs"]


def test_model_version_still_exported():
    assert isinstance(MODEL_VERSION, int)


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_run_writes_state_once_per_end(tmp_path, monkeypatch, jobs):
    """The state is written at start and at settle, never per pair: the
    artifact store is the record of finished work."""
    configs, workloads = (MEDIUM_BOOM, MEGA_BOOM), ["qsort", "sha"]
    writes = []
    original = SweepRunner._write_state

    def counting(self):
        writes.append(self._state["status"])
        original(self)

    monkeypatch.setattr(SweepRunner, "_write_state", counting)
    SweepRunner(SETTINGS, cache_dir=tmp_path).run(workloads[0], configs[0])
    # three computed pairs and one hit, then all four hits
    for _ in ("cold", "warm"):
        writes.clear()
        SweepRunner(SETTINGS, cache_dir=tmp_path).run_all(
            configs=configs, workloads=workloads, jobs=jobs)
        assert writes == ["running", "complete"]
    state = json.loads((tmp_path / "sweep_state.json").read_text())
    assert state["status"] == "complete"
    assert state["total"] == 4
    assert "completed" not in state
