"""Detailed simulation is always batched: the sweep's stage-4 contract.

Every sweep primes each workload's ``detailed_sim`` artifacts through
the batched engine (:mod:`repro.sim.batch`) — one shared fetch trace per
checkpoint, every config replaying it — and the ordinary per-config
pipeline consumes them as cache hits.  These tests pin the contract
against the reference a state-restored core stepping the generic loop
(``BoomCore(state=...)`` with a retire log) produces:

* serial and parallel sweeps write byte-identical artifacts and
  results to the reference;
* the parallel batch wave splits batches so every worker has one, and
  a warm serial sweep counts each cached result exactly once;
* any batch fault (permanent failure, transient I/O, mid-batch artifact
  corruption) degrades that workload back to per-config simulation
  without failing the sweep or poisoning sibling configs.
"""

import hashlib
from pathlib import Path

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner, _batch_chunks
from repro.pipeline import stages
from repro.pipeline.stages import DETAILED_STAGE, RESULT_STAGE
from repro.uarch.config import ALL_CONFIGS
from repro.uarch.core import BoomCore

SCALE = 0.05
WORKLOADS = ["sha"]
CONFIGS = ALL_CONFIGS


def _sweep(cache, *, faults=None, jobs=1):
    runner = SweepRunner(FlowSettings(scale=SCALE, faults=faults),
                         cache_dir=cache)
    results = runner.run_all(configs=CONFIGS, workloads=WORKLOADS,
                             jobs=jobs)
    return runner, {key: result.to_dict()
                    for key, result in results.items()}


def _artifact_digests(cache) -> dict[str, str]:
    """sha256 of every stage artifact (infrastructure files excluded)."""
    out = {}
    for path in sorted(Path(cache).rglob("*.json")):
        if path.name in ("run_manifest.json", "sweep_state.json"):
            continue
        relative = str(path.relative_to(cache))
        out[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _restored_records(config, program, checkpoints, interval_size):
    """Stage 4 on a state-restored core stepping the generic loop."""
    records = []
    for checkpoint in checkpoints:
        core = BoomCore(config, program, state=checkpoint.restore())
        core.retire_log = []  # keeps the core on the generic loop (_step)
        if checkpoint.warmup_instructions:
            core.run(checkpoint.warmup_instructions)
        stats = core.begin_measurement()
        measured = core.run(checkpoint.measure_instructions
                            or interval_size)
        records.append({
            "interval_index": checkpoint.interval_index,
            "weight": checkpoint.weight,
            "warmup_instructions": checkpoint.warmup_instructions,
            "measured_instructions": measured,
            "stats": stats.to_dict(),
        })
    return records


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A fault-free sweep whose stage 4 is the state-restored generic
    loop: the bit-exactness baseline."""
    cache = tmp_path_factory.mktemp("reference")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stages, "simulate_raw_runs_batched",
                      lambda configs, *args: {
                          config.name: _restored_records(config, *args)
                          for config in configs})
        runner, results = _sweep(cache)
    assert runner.last_manifest.ok
    return results, _artifact_digests(cache)


def test_serial_batched_sweep_bit_identical(tmp_path, reference):
    runner, results = _sweep(tmp_path)
    assert runner.last_manifest.ok
    assert not runner.batch_degraded
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_parallel_batch_wave_bit_identical(tmp_path, reference):
    runner, results = _sweep(tmp_path, jobs=2)
    assert runner.last_manifest.ok
    assert not runner.batch_degraded
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_parallel_batch_wave_keeps_every_worker_busy(tmp_path, reference):
    """One workload x 3 configs on 2 workers: the batch is split."""
    runner, results = _sweep(tmp_path, jobs=2)
    batches = [task.key for task in runner.last_manifest.tasks
               if task.key.startswith("batch:")]
    assert len(batches) >= 2, batches
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_batch_chunks_cover_pairs_in_order():
    pairs = [(workload, config) for workload in ("sha", "fft", "qsort")
             for config in CONFIGS]
    assert len(_batch_chunks(pairs, 1)) == 3   # one batch per workload
    for jobs in (2, 4, 8, 16):
        chunks = _batch_chunks(pairs, jobs)
        assert len(chunks) >= min(jobs, len(pairs))
        regrouped = [(workload, config) for workload, configs in chunks
                     for config in configs]
        assert sorted(regrouped, key=lambda pair: pair[0]) == \
            sorted(pairs, key=lambda pair: pair[0])


def test_second_priming_is_a_no_op(tmp_path):
    runner, _ = _sweep(tmp_path)
    assert runner.pipeline.prepare_detailed_batch(
        WORKLOADS[0], list(CONFIGS)) == 0


def test_warm_serial_sweep_counts_each_result_once(tmp_path):
    _sweep(tmp_path)
    runner, _ = _sweep(tmp_path)
    manifest = runner.last_manifest
    assert manifest.stages[RESULT_STAGE].hits == len(CONFIGS)
    assert manifest.total_executions == 0


# ----------------------------------------------------------------------
# degradation: a batch fault falls back to per-config simulation
# ----------------------------------------------------------------------

def test_serial_batch_failure_degrades_not_fails(tmp_path, reference):
    runner, results = _sweep(tmp_path, faults="worker.batch:fail:n=1")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert runner.batch_degraded.keys() == {"sha"}
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_parallel_batch_failure_degrades_not_fails(tmp_path, reference):
    runner, results = _sweep(tmp_path, jobs=2,
                             faults="worker.batch:fail:n=1")
    manifest = runner.last_manifest
    assert manifest.ok, manifest.format()
    assert runner.batch_degraded.keys() == {"sha"}
    assert results == reference[0]
    assert _artifact_digests(tmp_path) == reference[1]


def test_mid_batch_write_fault_degrades_cleanly(tmp_path, reference):
    """A transient I/O fault inside the batch's artifact writes."""
    runner, results = _sweep(
        tmp_path, faults=f"artifact.write:io:n=1:k={DETAILED_STAGE}")
    assert runner.last_manifest.ok
    assert runner.batch_degraded.keys() == {"sha"}
    assert results == reference[0]
    # The fault-hit artifact may live only in the store's memory cache
    # (the write failed once and the value was memoized — store
    # behavior, independent of batching); every artifact that did land
    # on disk must be byte-identical to the reference run's.
    digests = _artifact_digests(tmp_path)
    assert digests
    assert all(reference[1].get(name) == digest
               for name, digest in digests.items())


def test_mid_batch_corruption_no_sibling_poisoning(tmp_path, reference):
    """One batch-written detailed artifact is corrupted post-write.

    ``corrupt`` does not raise, so the batch finishes priming the
    remaining configs and the faulted sweep still completes (the store
    memoized the valid in-memory value).  A *fresh* consumer of the
    same cache then hits the corrupt artifact on read, discards it, and
    recomputes that one config alone — siblings keep their batch-primed
    artifacts, and every final byte matches the reference run.
    """
    runner, results = _sweep(
        tmp_path, faults=f"artifact.write:corrupt:n=1:k={DETAILED_STAGE}")
    assert runner.last_manifest.ok
    assert not runner.batch_degraded  # the batch itself completed
    assert results == reference[0]
    digests = _artifact_digests(tmp_path)
    corrupted = [name for name, digest in digests.items()
                 if reference[1].get(name) != digest]
    assert len(corrupted) == 1 and corrupted[0].startswith(DETAILED_STAGE)
    # Fresh store over the same cache, forced through the detailed
    # stage (a full rerun would short-circuit at the cached result):
    # the corrupt artifact is discarded and recomputed, siblings are
    # served as cache hits, and the cache converges byte-for-byte.
    rerun = SweepRunner(FlowSettings(scale=SCALE), cache_dir=tmp_path)
    for config in CONFIGS:
        rerun.pipeline.detailed(WORKLOADS[0], config)
    assert _artifact_digests(tmp_path) == reference[1]
