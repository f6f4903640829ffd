"""Tests for trace sessions and their integration with the sweep."""

import json
import os
from pathlib import Path

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.obs.render import trace_metrics
from repro.obs.session import (
    OBS_DIR_NAME,
    TraceSession,
    latest_run_dir,
    resolve_run_dir,
)
from repro.obs.tracer import (
    OBS_DIR_ENV,
    NullTracer,
    get_tracer,
    reset_tracer,
)
from repro.pipeline.manifest import RunManifest
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM

SETTINGS = FlowSettings(scale=0.1)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    reset_tracer()
    yield
    reset_tracer()


def _snapshot(manifest):
    """The metrics snapshot counted from a sweep's merged trace."""
    with open(manifest.trace) as handle:
        return trace_metrics(json.load(handle))


def test_session_lifecycle_env_and_merge(tmp_path):
    assert OBS_DIR_ENV not in os.environ
    session = TraceSession(tmp_path, label="unit")
    with session:
        assert os.environ[OBS_DIR_ENV] == str(session.run_dir)
        tracer = get_tracer()
        assert tracer.enabled
        with tracer.span("work"):
            pass
    assert OBS_DIR_ENV not in os.environ
    assert isinstance(get_tracer(), NullTracer)
    assert session.trace_path is not None
    trace = json.loads(session.trace_path.read_text())
    assert [e["name"] for e in trace["events"]] == ["work", "work"]
    assert sorted(path.name for path in session.run_dir.iterdir()) == \
        [f"events-{os.getpid()}.jsonl", "trace.json"]


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
    assert trace_metrics(trace)["cache.hit_rate"] == manifest.hit_rate
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
    assert {f"worker.utilization.{pid}" for pid in worker_pids} <= \
        set(trace_metrics(merged))


def test_traced_parallel_run_dir_holds_only_events_and_trace(
        tmp_path, capsys):
    """Pool workers reach the parent through their event files alone,
    and ``progress`` prints from the parent without writing a file."""
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort", "sha"],
                   jobs=2, trace=True, progress=True)
    run_dir = Path(runner.last_manifest.trace).parent
    names = sorted(path.name for path in run_dir.iterdir())
    events = [name for name in names
              if name.startswith("events-") and name.endswith(".jsonl")]
    assert names == sorted(events + ["trace.json"])
    assert f"events-{os.getpid()}.jsonl" in events and len(events) >= 2
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("progress: ")]
    assert [line.split()[1] for line in lines] == \
        ["prepare"] * 2 + ["batch"] * 2 + ["experiment"] * 2


def test_untraced_sweep_records_nothing(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"])
    manifest = runner.last_manifest
    assert manifest.trace == ""
    assert not (tmp_path / OBS_DIR_NAME).exists()


def test_manifest_round_trips_tasks_and_metrics(tmp_path):
    """The manifest names the trace its metrics are counted from; a
    manifest written while it still carried a ``metrics`` snapshot
    loads."""
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   jobs=2, trace=True)
    written = json.loads((tmp_path / "run_manifest.json").read_text())
    assert "metrics" not in written
    reloaded = RunManifest.from_dict(written)
    assert {t.key for t in reloaded.tasks} == \
        {t.key for t in runner.last_manifest.tasks}
    assert reloaded.trace == runner.last_manifest.trace
    assert _snapshot(reloaded)["scheduler.completed"] == len(reloaded.tasks)
    legacy = dict(written, metrics={
        "cache.hit_rate": {"kind": "gauge", "value": 0.5, "high": 0.5}})
    assert RunManifest.from_dict(legacy).to_dict() == written


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_metrics_agree_with_the_manifest(tmp_path, jobs):
    """Counted from the merged trace, the snapshot covers the pool
    workers' artifact events as well as the parent's."""
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM, MEGA_BOOM),
                   workloads=["qsort", "sha"], jobs=jobs, trace=True)
    manifest = runner.last_manifest
    snapshot = _snapshot(manifest)
    counted = (snapshot["artifact.hit"], snapshot["artifact.miss"],
               snapshot["artifact.write"])
    assert counted == (manifest.total_hits, manifest.total_misses,
                       manifest.total_executions) == (12, 18, 18)
    assert snapshot["cache.hit_rate"] == manifest.hit_rate
    with open(manifest.trace) as handle:
        done = sum(1 for event in json.load(handle)["events"]
                   if event.get("name") == "task.done")
    # two prepare, two batch and four experiment tasks, in this process
    # or in the pool
    assert snapshot["scheduler.completed"] == done == len(manifest.tasks) \
        == 8


def test_metrics_file_equals_the_manifest_metrics_on_every_sweep(tmp_path):
    """The metrics are counted from each sweep's own trace file, so a
    second sweep in the same process reports its own counts and hit
    rate, not the first sweep's or a sum of both."""
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    traces = set()
    for expected_hit_rate in (None, 1.0):
        runner.run_all(workloads=["qsort"], trace=True)
        manifest = runner.last_manifest
        traces.add(manifest.trace)
        snapshot = _snapshot(manifest)
        assert (snapshot["artifact.hit"], snapshot["artifact.miss"],
                snapshot["artifact.write"]) == (
            manifest.total_hits, manifest.total_misses,
            manifest.total_executions)
        assert snapshot["cache.hit_rate"] == manifest.hit_rate
        if expected_hit_rate is not None:
            assert manifest.hit_rate == expected_hit_rate
    assert len(traces) == 2


def test_sweeps_started_in_one_second_get_their_own_run_dirs(
        tmp_path, monkeypatch):
    from repro.obs import session

    monkeypatch.setattr(session.time, "strftime",
                        lambda fmt: "20260101-000000")
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=tmp_path)
    traces = set()
    for _ in range(2):
        runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                       trace=True)
        traces.add(runner.last_manifest.trace)
    run_dirs = [path for path in (tmp_path / OBS_DIR_NAME).iterdir()
                if path.is_dir()]
    assert len(run_dirs) == 2 and len(traces) == 2
    for run_dir in run_dirs:
        assert (run_dir / "trace.json").exists()


def test_a_warm_sweep_reports_only_its_own_metrics(tmp_path):
    """Each sweep's snapshot counts its own trace: a second, warm sweep
    in the same process reports no misses and no writes."""
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=tmp_path)
    counts = []
    for _ in range(2):
        runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                       trace=True)
        snapshot = _snapshot(runner.last_manifest)
        assert snapshot["cache.hit_rate"] == runner.last_manifest.hit_rate
        counts.append((snapshot["artifact.miss"],
                       snapshot["artifact.write"]))
    cold, warm = counts
    assert cold[0] > 0 and cold[1] > 0
    assert warm == (0, 0)
    assert runner.last_manifest.hit_rate == 1.0
