"""Tests for trace sessions and their integration with the sweep."""

import json
import os

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.obs.metrics import reset_metrics
from repro.obs.session import (
    OBS_DIR_NAME,
    TraceSession,
    latest_run_dir,
    resolve_run_dir,
)
from repro.obs.tracer import (
    OBS_DIR_ENV,
    OBS_TRACE_ENV,
    NullTracer,
    get_tracer,
    reset_tracer,
)
from repro.uarch.config import MEDIUM_BOOM

SETTINGS = FlowSettings(scale=0.1)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    reset_tracer()
    reset_metrics()
    yield
    reset_tracer()
    reset_metrics()


def test_session_lifecycle_env_and_merge(tmp_path):
    assert OBS_DIR_ENV not in os.environ
    session = TraceSession(tmp_path, label="unit")
    with session:
        assert os.environ[OBS_DIR_ENV] == str(session.run_dir)
        assert os.environ[OBS_TRACE_ENV] == "1"
        tracer = get_tracer()
        assert tracer.enabled
        with tracer.span("work"):
            pass
    assert OBS_DIR_ENV not in os.environ
    assert isinstance(get_tracer(), NullTracer)
    assert session.trace_path is not None
    trace = json.loads(session.trace_path.read_text())
    assert [e["name"] for e in trace["events"]] == ["work", "work"]
    assert (session.run_dir / "metrics.json").exists()


def test_latest_pointer_and_resolution(tmp_path):
    with TraceSession(tmp_path, label="first") as first:
        pass
    with TraceSession(tmp_path, label="second") as second:
        pass
    assert latest_run_dir(tmp_path) == second.run_dir
    assert resolve_run_dir(tmp_path) == second.run_dir
    assert resolve_run_dir(tmp_path, "latest") == second.run_dir
    assert resolve_run_dir(tmp_path, first.run_id) == first.run_dir
    assert resolve_run_dir(tmp_path, str(first.run_dir)) == first.run_dir
    assert resolve_run_dir(tmp_path, "nonsense") is None


def test_traced_serial_sweep_manifest(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   trace=True)
    manifest = runner.last_manifest
    assert manifest.trace
    trace = json.loads((tmp_path / OBS_DIR_NAME).joinpath(
        sorted(p.name for p in (tmp_path / OBS_DIR_NAME).iterdir()
               if p.is_dir())[0], "trace.json").read_text())
    names = {e["name"] for e in trace["events"]}
    for stage in ("bbv_profile", "simpoint_selection", "checkpoints",
                  "detailed_sim", "power_report", "experiment_result"):
        assert f"stage.{stage}" in names, stage
    assert "cache.hit_rate" in manifest.metrics
    # the session is torn down: later runs are not traced
    assert isinstance(get_tracer(), NullTracer)


def test_traced_parallel_sweep_records_tasks(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   jobs=2, trace=True)
    manifest = runner.last_manifest
    tasks = manifest.tasks
    assert {t.key for t in tasks} == {"prepare:qsort", "batch:qsort:0",
                                      "qsort/MediumBOOM"}
    parent = os.getpid()
    for task in tasks:
        assert task.pid != parent
        assert task.ended >= task.started
        assert task.attempts == 1
    # worker event files merged into the run trace
    assert manifest.trace.endswith("trace.json")
    merged = json.loads(open(manifest.trace).read())
    worker_pids = {t.pid for t in tasks}
    assert worker_pids <= set(merged["processes"])
    # scheduler lifecycle events made it into the merged trace
    names = {e["name"] for e in merged["events"]}
    assert {"task.submit", "task.done"} <= names
    assert any(key.startswith("worker.utilization.")
               for key in manifest.metrics)


def test_untraced_sweep_records_nothing(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"])
    manifest = runner.last_manifest
    assert manifest.trace == ""
    assert not (tmp_path / OBS_DIR_NAME).exists()


def test_manifest_round_trips_tasks_and_metrics(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   jobs=2, trace=True)
    from repro.pipeline.manifest import RunManifest

    reloaded = RunManifest.from_dict(json.loads(
        (tmp_path / "run_manifest.json").read_text()))
    assert {t.key for t in reloaded.tasks} == \
        {t.key for t in runner.last_manifest.tasks}
    assert reloaded.metrics == runner.last_manifest.metrics
    assert reloaded.trace == runner.last_manifest.trace


def test_metrics_file_equals_the_manifest_metrics_on_every_sweep(tmp_path):
    """``metrics.json`` is written after the run-level gauges are added,
    so a second sweep in the same process writes its own values."""
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    for expected_hit_rate in (None, 1.0):
        runner.run_all(workloads=["qsort"], trace=True)
        manifest = runner.last_manifest
        metrics_path = os.path.join(os.path.dirname(manifest.trace),
                                    "metrics.json")
        with open(metrics_path) as handle:
            written = json.load(handle)
        assert written == json.loads(json.dumps(manifest.metrics))
        assert written["cache.hit_rate"]["value"] == manifest.hit_rate
        if expected_hit_rate is not None:
            assert manifest.hit_rate == expected_hit_rate
