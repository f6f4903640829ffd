"""End-to-end fault-tolerance tests for the supervised sweep.

Each test runs a tiny sweep (two workloads, one configuration, reduced
scale) with a deterministic injected fault and checks the recovery path:
results bit-identical to a fault-free serial run, degradation recorded
in the manifest, and interrupted sweeps resumable without recomputation.
"""

import json
from collections import Counter

import pytest

from repro.errors import PERMANENT
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SWEEP_STATE_NAME, SweepRunner
from repro.pipeline.stages import PROFILE_STAGE, RESULT_STAGE
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM

SCALE = 0.05
WORKLOADS = ["qsort", "sha"]


def _settings(faults=None):
    return FlowSettings(scale=SCALE, faults=faults)


def _sweep(tmp_path, faults=None, jobs=2, **kwargs):
    runner = SweepRunner(_settings(faults), cache_dir=tmp_path)
    results = runner.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS,
                             jobs=jobs, **kwargs)
    return runner, {key: result.to_dict() for key, result in results.items()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Fault-free serial sweep: the bit-exactness baseline."""
    cache = tmp_path_factory.mktemp("reference")
    runner = SweepRunner(_settings(), cache_dir=cache)
    results = runner.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS)
    assert runner.last_manifest.ok
    return {key: result.to_dict() for key, result in results.items()}


# ----------------------------------------------------------------------
# crash, corruption, transient-I/O recovery: sweep completes, results
# bit-identical to the fault-free serial run
# ----------------------------------------------------------------------

def test_worker_crash_recovers_bit_identical(tmp_path, reference):
    runner, results = _sweep(tmp_path,
                             faults="worker.experiment:crash:n=1")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert manifest.total_retries >= 1  # the lost task was re-run
    assert results == reference


def test_corrupt_artifact_recovers_bit_identical(tmp_path, reference):
    runner, results = _sweep(
        tmp_path,
        faults=f"artifact.write:corrupt:n=1:k={RESULT_STAGE}")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert results == reference
    # the corrupt file was discarded and recomputed, so a fresh runner
    # reading the same cache must parse every artifact cleanly
    fresh = SweepRunner(_settings(), cache_dir=tmp_path)
    reread = fresh.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS)
    assert {key: result.to_dict()
            for key, result in reread.items()} == reference


def test_transient_io_retry_then_succeed(tmp_path, reference):
    runner, results = _sweep(tmp_path, faults="worker.experiment:io:n=1")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert manifest.total_retries == 1
    assert results == reference


# ----------------------------------------------------------------------
# timeout and permanent failure: graceful degradation
# ----------------------------------------------------------------------

def test_timeout_abandons_hung_task(tmp_path, reference):
    runner, results = _sweep(
        tmp_path, faults="worker.experiment:hang:s=3:n=1:k=qsort",
        timeout=0.7)
    manifest = runner.last_manifest
    assert not manifest.ok
    (record,) = manifest.timeouts
    assert record.key == f"qsort/{MEDIUM_BOOM.name}"
    assert results[("sha", MEDIUM_BOOM.name)] == \
        reference[("sha", MEDIUM_BOOM.name)]


def test_permanent_failure_degrades_gracefully(tmp_path, reference):
    runner, results = _sweep(tmp_path,
                             faults="worker.experiment:fail:n=1:k=qsort")
    manifest = runner.last_manifest
    assert not manifest.ok
    (record,) = manifest.failures
    assert record.key == f"qsort/{MEDIUM_BOOM.name}"
    assert record.kind == PERMANENT
    assert "injected permanent failure" in record.error
    # the healthy experiment still completed, bit-identical
    assert results[("sha", MEDIUM_BOOM.name)] == \
        reference[("sha", MEDIUM_BOOM.name)]


def test_prepare_failure_poisons_only_that_workload(tmp_path, reference):
    runner, results = _sweep(tmp_path,
                             faults="worker.prepare:fail:n=1:k=qsort")
    manifest = runner.last_manifest
    kinds = {record.key: record.kind for record in manifest.failures}
    assert kinds["prepare:qsort"] == PERMANENT
    assert kinds[f"qsort/{MEDIUM_BOOM.name}"] == "skipped"
    assert results[("sha", MEDIUM_BOOM.name)] == \
        reference[("sha", MEDIUM_BOOM.name)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_prepare_failure_is_one_record_serial_and_parallel(tmp_path, jobs):
    """A deterministic profiling fault fails ``prepare:<workload>`` once
    and skips that workload's pairs, whether the sweep is serial or not."""
    probe = SweepRunner(_settings(), cache_dir=None).pipeline
    fingerprints = {workload: probe.profile_fingerprint(workload)
                    for workload in WORKLOADS}
    runner = SweepRunner(
        _settings(f"stage.{PROFILE_STAGE}:fail:n=0:"
                  f"k={fingerprints['qsort']}"),
        cache_dir=tmp_path)
    results = runner.run_all(configs=(MEDIUM_BOOM, MEGA_BOOM),
                             workloads=WORKLOADS, jobs=jobs, trace=True)
    manifest = runner.last_manifest
    assert {(record.key, record.kind) for record in manifest.failures} == {
        ("prepare:qsort", PERMANENT),
        (f"qsort/{MEDIUM_BOOM.name}", "skipped"),
        (f"qsort/{MEGA_BOOM.name}", "skipped")}
    assert sorted(results) == [("sha", MEDIUM_BOOM.name),
                               ("sha", MEGA_BOOM.name)]
    # one profile attempt per workload, in whichever process made it
    with open(manifest.trace) as handle:
        events = json.load(handle)["events"]
    attempts = Counter(event["attrs"]["fingerprint"] for event in events
                       if event.get("name") == "artifact.miss"
                       and event["attrs"]["stage"] == PROFILE_STAGE)
    assert attempts == Counter(fingerprints.values())
    # the failed task's lookups reach the manifest too
    assert manifest.stages[PROFILE_STAGE].misses == \
        sum(attempts.values())


@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_carries_prepare_failures_forward(tmp_path, jobs):
    """A workload whose preparation failed permanently stays failed on
    ``--resume``: its pairs are skipped without profiling it again."""
    probe = SweepRunner(_settings(), cache_dir=None).pipeline
    failed = probe.profile_fingerprint("qsort")
    configs = (MEDIUM_BOOM, MEGA_BOOM)
    degraded = SweepRunner(
        _settings(f"stage.{PROFILE_STAGE}:fail:n=0:k={failed}"),
        cache_dir=tmp_path)
    degraded.run_all(configs=configs, workloads=WORKLOADS, jobs=jobs)
    assert not degraded.last_manifest.ok

    # resume with faults cleared: profiling qsort would now succeed, but
    # the known-permanent failure is carried forward instead
    resumed = SweepRunner(_settings(), cache_dir=tmp_path)
    results = resumed.run_all(configs=configs, workloads=WORKLOADS,
                              jobs=jobs, resume=True, trace=True)
    manifest = resumed.last_manifest
    kinds = {record.key: record.kind for record in manifest.failures}
    assert kinds == {"prepare:qsort": PERMANENT,
                     f"qsort/{MEDIUM_BOOM.name}": "skipped",
                     f"qsort/{MEGA_BOOM.name}": "skipped"}
    assert next(record.error for record in manifest.failures
                if record.key == "prepare:qsort").startswith(
        "(carried from interrupted run)")
    assert sorted(results) == [("sha", MEDIUM_BOOM.name),
                               ("sha", MEGA_BOOM.name)]
    with open(manifest.trace) as handle:
        events = json.load(handle)["events"]
    assert not [event for event in events
                if event.get("name") == "artifact.miss"
                and event["attrs"]["stage"] == PROFILE_STAGE]
    assert manifest.total_executions == 0


def test_serial_fail_fast_skips_the_tail(tmp_path):
    # power_report, not detailed_sim: a fault inside the batch that
    # primes the detailed stage degrades the batch instead of the pair
    runner, results = _sweep(tmp_path, jobs=1,
                             faults="stage.power_report:fail:n=1",
                             fail_fast=True)
    manifest = runner.last_manifest
    assert not manifest.ok
    kinds = [record.kind for record in manifest.failures]
    assert kinds[0] == PERMANENT
    assert "skipped" in kinds[1:]
    assert len(results) + len(manifest.failures) == len(WORKLOADS)


# ----------------------------------------------------------------------
# incremental persistence and resume
# ----------------------------------------------------------------------

def test_completed_sweep_resumes_without_recomputation(tmp_path, reference):
    _sweep(tmp_path)  # warm, fault-free
    runner = SweepRunner(_settings(), cache_dir=tmp_path)
    results = runner.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS,
                             resume=True)
    assert runner.resumed_completed == len(WORKLOADS)
    assert all(stats.executions == 0
               for stats in runner.store.stats().values())
    assert {key: result.to_dict()
            for key, result in results.items()} == reference


def test_resume_carries_permanent_failures_forward(tmp_path, reference):
    degraded, _ = _sweep(tmp_path,
                         faults="worker.experiment:fail:n=1:k=qsort")
    assert not degraded.last_manifest.ok
    assert (tmp_path / SWEEP_STATE_NAME).exists()

    # resume with faults cleared: the known-permanent failure is carried
    # forward, the completed experiment is a cache hit, nothing re-runs
    resumed = SweepRunner(_settings(), cache_dir=tmp_path)
    results = resumed.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS,
                              resume=True)
    assert resumed.resumed_completed == 1
    assert all(stats.executions == 0
               for stats in resumed.store.stats().values())
    (record,) = resumed.last_manifest.failures
    assert record.kind == PERMANENT
    assert record.error.startswith("(carried from interrupted run)")
    assert list(results) == [("sha", MEDIUM_BOOM.name)]

    # a fresh (non-resume) run re-attempts and, faults gone, succeeds
    fresh = SweepRunner(_settings(), cache_dir=tmp_path)
    full = fresh.run_all(configs=(MEDIUM_BOOM,), workloads=WORKLOADS)
    assert fresh.last_manifest.ok
    assert {key: result.to_dict()
            for key, result in full.items()} == reference


def test_state_file_tracks_progress_and_status(tmp_path):
    import json

    runner, _ = _sweep(tmp_path)
    state = json.loads((tmp_path / SWEEP_STATE_NAME).read_text())
    assert state["status"] == "complete"
    assert sorted(state["completed"]) == \
        sorted(f"{workload}/{MEDIUM_BOOM.name}" for workload in WORKLOADS)
    assert state["total"] == len(WORKLOADS)
    assert state["failures"] == []
