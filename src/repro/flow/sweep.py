"""Sweeps: all workloads x all configurations, at stage granularity.

The figure/table benchmarks all consume the same full sweep.  Work is
scheduled per pipeline *stage* (see :mod:`repro.pipeline.stages`), not
per experiment: BBV profiling, SimPoint selection and checkpoint
creation are computed exactly once per workload and shared by every
configuration x predictor combination, with every stage's output cached
in a content-addressed :class:`~repro.pipeline.artifacts.ArtifactStore`.
Delete the cache directory (or use ``repro-cli cache``) to force
recomputation.

Detailed simulation is always batched: each workload's uncached
configs replay one shared fetch trace per checkpoint
(:mod:`repro.sim.batch`), priming the ``detailed_sim`` artifacts that
the per-experiment stages then consume as cache hits.  Every sweep
runs its uncached work in three waves of tasks — the per-workload
stages, the batches, then the per-experiment stages.  ``jobs=1`` runs
each task in this process, on the runner's own pipeline and store;
more jobs fan the tasks out to a process pool, whose workers hand each
other artifacts through the store's directory.  A runner without a
cache directory stores on a scratch directory of its own, removed with
the runner, so every sweep runs the same waves.  Every stage is fully
seeded, so results are bit-identical at every ``jobs``.

Execution is *supervised* (:mod:`repro.flow.scheduler`) at every
``jobs``: a crashed or OOM-killed worker re-spawns the pool and
re-enqueues only the lost tasks, transient faults (I/O errors, corrupt
artifacts) retry with capped exponential backoff, hung pool tasks are
abandoned after a per-task timeout, and deterministic model failures
are recorded in the manifest while the rest of the sweep completes.
Results persist incrementally, so a killed sweep resumes from its last
completed experiment (``repro-cli sweep --resume``): the artifact store
is the only record of finished work.  ``<cache>/sweep_state.json``
holds the sweep's status, owner and failures, written when the sweep
starts and when it ends.

Each ``run_all`` produces a :class:`~repro.pipeline.manifest.RunManifest`
(``SweepRunner.last_manifest``) with per-stage execution counts, cache
hits/misses, wall-clock timings, and the fault record (failures,
timeouts, retries); with a disk cache it is also written to
``<cache>/run_manifest.json``.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys
import tempfile
import weakref
from concurrent.futures import Future
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.errors import PERMANENT, SweepInterrupted
from repro.flow.experiment import FlowSettings
from repro.flow.interrupt import InterruptGuard
from repro.flow.results import ExperimentResult
from repro.flow.scheduler import (
    RetryPolicy,
    ScheduleOutcome,
    SupervisedScheduler,
    Task,
)
from repro.obs.session import TraceSession
from repro.obs.tracer import get_tracer, tracing_requested
from repro.pipeline.artifacts import (
    ArtifactStore,
    MODEL_VERSION,
    atomic_write_text,
)
from repro.pipeline.faults import FaultInjector
from repro.pipeline.locking import FileLock, owner_token, release_held
from repro.pipeline.manifest import RunManifest, TaskRecord
from repro.pipeline.stages import ExperimentPipeline, import_compute_stack
from repro.uarch.config import ALL_CONFIGS, BoomConfig
from repro.workloads.suite import workload_names

__all__ = ["DEFAULT_CACHE_DIR", "MODEL_VERSION", "SweepRunner",
           "MANIFEST_NAME", "SWEEP_STATE_NAME", "open_trace_session"]

logger = logging.getLogger("repro.flow.sweep")

DEFAULT_CACHE_DIR = Path(".repro_cache")

MANIFEST_NAME = "run_manifest.json"
SWEEP_STATE_NAME = "sweep_state.json"


def open_trace_session(cache_dir: Path | None, *, trace: bool,
                       label: str) -> TraceSession | None:
    """Start a :class:`TraceSession` when ``trace`` or ``REPRO_TRACE``
    asks for one; a run without a cache directory is left untraced."""
    if not (trace or tracing_requested()):
        return None
    if cache_dir is None:
        logger.warning("tracing requested but the run has no cache "
                       "directory; trace disabled")
        return None
    return TraceSession(cache_dir, label=label).start()


def _pair_key(workload: str, config: BoomConfig) -> str:
    return f"{workload}/{config.name}"


def _skipped(key: str, why: str) -> TaskRecord:
    return TaskRecord(key=key, kind="skipped", error=f"skipped: {why}",
                      attempts=0)


def _drop_unprepared(pairs: list[tuple[str, BoomConfig]],
                     unprepared: dict[str, TaskRecord],
                     outcome: ScheduleOutcome) -> list[tuple[str, BoomConfig]]:
    """The pairs whose workload is not in ``unprepared``; the others are
    recorded as skipped, not left to re-fail on the same error."""
    outcome.failures.extend(
        _skipped(_pair_key(workload, config), f"workload preparation "
                 f"failed ({unprepared[workload].error})")
        for workload, config in pairs if workload in unprepared)
    return [pair for pair in pairs if pair[0] not in unprepared]


def _batch_chunks(pairs: list[tuple[str, BoomConfig]], jobs: int) \
        -> list[tuple[str, tuple[BoomConfig, ...]]]:
    """Group pending pairs into per-workload batch tasks.

    One batch per workload shares the most fetch work, but a sweep over
    fewer workloads than workers would then leave workers idle, so the
    widest batches are split until there are at least
    ``min(jobs, len(pairs))`` of them.
    """
    by_workload: dict[str, list[BoomConfig]] = {}
    for workload, config in pairs:
        by_workload.setdefault(workload, []).append(config)
    splits = dict.fromkeys(by_workload, 1)
    while sum(splits.values()) < min(jobs, len(pairs)):
        widest = max(by_workload,
                     key=lambda name: len(by_workload[name]) / splits[name])
        splits[widest] += 1
    chunks = []
    for workload, configs in sorted(by_workload.items()):
        count = splits[workload]
        for index in range(count):
            chunks.append((workload, tuple(
                configs[index * len(configs) // count:
                        (index + 1) * len(configs) // count])))
    return chunks


def _run_stage_task(payload: tuple) -> tuple:
    """One wave task: fire its ``worker.*`` fault site, then its work.

    Returns ``(work(pipeline, workload, *args), stats)``.  An in-process
    task runs on the sweep's own pipeline (``where``), whose store
    already counts its lookups, so ``stats`` is empty.  A pool task
    builds a store on the sweep's store directory from
    ``where = (settings, root)`` and returns its counters; a raised
    exception carries them as ``stage_stats``, so a failed attempt's
    lookups reach the manifest too.
    """
    site, key, work, workload, args, where = payload
    store = None
    if isinstance(where, ExperimentPipeline):
        pipeline = where
    else:
        settings, root = where
        store = ArtifactStore(
            root, faults=FaultInjector.from_settings(settings, root))
        pipeline = ExperimentPipeline(store, settings)
    try:
        if pipeline.store.faults is not None:
            pipeline.store.faults.inject(site, key)
        value = work(pipeline, workload, *args)
    except Exception as exc:
        if store is not None:
            exc.stage_stats = store.stats_dict()
        raise
    return value, store.stats_dict() if store is not None else {}


class _InProcessExecutor:
    """The executor of a ``jobs=1`` sweep: ``submit`` runs the task now.

    Its futures are complete when ``submit`` returns, so the scheduler's
    waits never block and its timeouts never fire: an in-process task
    cannot be abandoned.  A :class:`SweepInterrupted` raised inside a
    task propagates out of ``submit`` and settles the sweep instead of
    becoming a task failure.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except SweepInterrupted:
            raise
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, **_: Any) -> None:
        pass


class SweepRunner:
    """Runs and caches (workload, configuration) experiments."""

    def __init__(self, settings: FlowSettings | None = None,
                 cache_dir: Path | str | None = DEFAULT_CACHE_DIR) -> None:
        self.settings = settings if settings is not None else FlowSettings()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        root = self.cache_dir
        if root is None:
            # a throwaway run stores on a scratch directory of its own,
            # removed when the runner is collected or the process exits
            root = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
            weakref.finalize(self, shutil.rmtree, root, ignore_errors=True)
        self.store = ArtifactStore(
            root, faults=FaultInjector.from_settings(self.settings, root))
        self.pipeline = ExperimentPipeline(self.store, self.settings)
        self.last_manifest: RunManifest | None = None
        self.resumed_completed = 0
        #: workload -> error, for batches that degraded to per-config
        #: simulation during the last run_all
        self.batch_degraded: dict[str, str] = {}

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, workload: str, config: BoomConfig) -> ExperimentResult:
        """One experiment, via the stage cache when available."""
        return self.pipeline.result(workload, config)

    def run_all(self, configs: Iterable[BoomConfig] = ALL_CONFIGS,
                workloads: list[str] | None = None,
                jobs: int = 1, *,
                policy: RetryPolicy | None = None,
                timeout: float | None = None,
                fail_fast: bool = False,
                resume: bool = False,
                trace: bool = False,
                progress: bool = False) \
            -> dict[tuple[str, str], ExperimentResult]:
        """The full study: every workload on every configuration.

        ``configs`` is any iterable of :class:`BoomConfig` — the three
        paper presets by default, but equally a generated design-space
        lattice (:mod:`repro.uarch.space`).  Results, sweep state and
        the returned map are keyed by config *name*, so names must be
        unique within one sweep (generated points embed their content
        hash in the name, guaranteeing this).

        Uncached work runs as tasks at stage granularity: one task per
        workload for the shared stages, one per batch of a workload's
        detailed stage, then one per uncached experiment.  ``jobs=1``
        runs them in this process, more jobs in a process pool.
        Execution is supervised either way — transient faults retry
        with backoff (``policy``) and permanent model failures are
        recorded in the run manifest while the remaining experiments
        complete (unless ``fail_fast``); in a pool, worker crashes
        respawn the pool and re-enqueue only the lost tasks, and tasks
        hung past ``timeout`` seconds are abandoned.  An in-process task
        cannot be abandoned, so ``timeout`` does not bound it.

        ``resume=True`` picks an interrupted sweep back up: completed
        experiments are served from the incrementally-persisted artifact
        store (``resumed_completed`` counts the results it held when
        the sweep began), and experiments that already failed
        *permanently* are carried forward instead of being recomputed
        (transient and fail-fast-skipped ones are re-attempted).

        ``trace=True`` (or ``REPRO_TRACE=1``) records a structured trace
        of the run — pipeline-stage spans, scheduler lifecycle events,
        artifact cache events, simulator heartbeats — under
        ``<cache>/obs/<run_id>/`` and merges it into ``trace.json`` when
        the sweep finishes (``repro-cli trace`` renders it).  Tracing
        never alters artifacts or fingerprints; it requires a cache
        directory.  ``progress=True`` writes one stderr line per settled
        task (wave, key, done/total, elapsed, ETA), traced or not.
        """
        started = perf_counter()
        before = self.store.stats_snapshot()
        policy = policy if policy is not None else RetryPolicy()
        configs = tuple(configs)
        names = [config.name for config in configs]
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"sweep configs must have unique names, got duplicates: "
                f"{', '.join(duplicates)}")
        if workloads is None:
            workloads = workload_names()
        pairs = [(workload, config) for config in configs
                 for workload in workloads]
        sweep_id = self._sweep_id(pairs)
        outcome = ScheduleOutcome()
        self.resumed_completed = 0
        self.batch_degraded = {}
        pending_pairs = self._apply_resume(pairs, sweep_id, resume, outcome)
        session = open_trace_session(self.cache_dir, trace=trace,
                                     label="sweep")
        self._state = {
            "sweep_id": sweep_id,
            "total": len(pairs),
            "failures": [record.to_dict() for record in outcome.failures],
            "status": "running",
            "owner": owner_token(),
        }
        results: dict[tuple[str, str], ExperimentResult] = {}
        interrupted: SweepInterrupted | None = None
        try:
            with InterruptGuard():
                # the state file is written only once the guard is
                # live: "sweep_state.json exists" implies a signal now
                # settles cleanly instead of killing us mid-write
                self._write_state()
                self._run(pending_pairs, jobs, results, outcome,
                          policy=policy, timeout=timeout,
                          fail_fast=fail_fast, progress=progress)
        except SweepInterrupted as exc:
            interrupted = exc
        except KeyboardInterrupt:
            # guard not installed (worker thread) or a raw Ctrl-C that
            # beat the handler: settle the same way
            interrupted = SweepInterrupted("SIGINT")
        finally:
            merged = session.finish() if session is not None else None
        trace_path = str(merged) if merged is not None else ""
        manifest = RunManifest.delta(
            before, self.store.stats_snapshot(),
            wall_seconds=perf_counter() - started, jobs=jobs,
            experiments=len(pairs), failures=outcome.failures,
            timeouts=outcome.timeouts, retries=outcome.retries,
            tasks=outcome.executions, trace=trace_path)
        self.last_manifest = manifest
        self._state["failures"] = [record.to_dict()
                                   for record in outcome.failures]
        if interrupted is not None:
            self._state["status"] = "interrupted"
        else:
            self._state["status"] = "aborted" if outcome.aborted \
                else "complete"
        self._write_state()
        self._write_manifest(manifest)
        if interrupted is not None:
            self._settle_interrupt(interrupted)
            raise interrupted
        return results

    def _settle_interrupt(self, exc: SweepInterrupted) -> None:
        """Leave nothing for ``repro-cli recover`` to repair.

        The state file already says ``interrupted``; what remains is
        the in-flight bookkeeping: open journal intents are aborted
        (artifact writes are atomic, so nothing torn can sit at a final
        path), this process's held leases are released, and leases of
        already-terminated pool workers are reclaimed.
        """
        aborted = self.store.journal.abort_open()
        released = release_held()
        released += self.store.claims.release_dead()
        logger.warning(
            "sweep interrupted by %s: state marked interrupted, "
            "%d journal intent(s) aborted, %d lease(s) released",
            exc.signal_name, aborted, released)

    # ------------------------------------------------------------------
    # supervised execution: prepare, batch and experiment waves
    # ------------------------------------------------------------------

    def _run(self, pairs: list[tuple[str, BoomConfig]], jobs: int,
             results: dict[tuple[str, str], ExperimentResult],
             outcome: ScheduleOutcome, *, policy: RetryPolicy,
             timeout: float | None, fail_fast: bool,
             progress: bool) -> None:
        pipeline = self.pipeline
        pending: list[tuple[str, BoomConfig]] = []
        for workload, config in pairs:
            cached = pipeline.peek_result(workload, config)
            if cached is not None:
                results[(workload, config.name)] = cached
            else:
                pending.append((workload, config))
        self.resumed_completed = len(results)
        if not pending:
            return
        # loaded once here, the stack is shared by every forked worker
        import_compute_stack()

        # jobs=1 runs every task in this process, on this runner's own
        # pipeline and store; a pool task builds its own on the same root
        in_process = jobs == 1
        where = pipeline if in_process else \
            (self.settings, str(self.store.root))

        def task(key: str, site: str, work: Callable[..., Any],
                 workload: str, *args: Any, fault_key: str | None = None) \
                -> Task:
            return Task(key=key, fn=_run_stage_task,
                        payload=(site, fault_key or workload, work,
                                 workload, args, where))

        def merge_failed(task: Task, exc: Exception) -> None:
            self.store.merge_stats(getattr(exc, "stage_stats", {}))

        def make_scheduler(fail_fast: bool) -> SupervisedScheduler:
            return SupervisedScheduler(
                max_workers=jobs, policy=policy, timeout=timeout,
                fail_fast=fail_fast,
                executor_factory=(lambda _: _InProcessExecutor())
                if in_process else None,
                progress=sys.stderr if progress else None)

        def merge_stats(task: Task, payload: tuple) -> None:
            self.store.merge_stats(payload[1])

        workloads = dict.fromkeys(workload for workload, _ in pending)
        needed = [workload for workload in workloads
                  if not pipeline.workload_prepared(workload)]
        scheduler = make_scheduler(fail_fast)
        prepare_wave = scheduler.run(
            [task(f"prepare:{workload}", "worker.prepare",
                  ExperimentPipeline.prepare_workload, workload)
             for workload in needed],
            on_result=merge_stats, on_error=merge_failed,
            wave="prepare")
        outcome.absorb(prepare_wave)

        # a workload whose shared stages failed poisons all of its
        # experiments
        runnable = _drop_unprepared(pending, {
            record.key.split(":", 1)[1]: record
            for record in prepare_wave.failures
            if record.key.startswith("prepare:")}, outcome)
        if outcome.aborted:
            # fail-fast tripped during workload preparation: account for
            # the experiments that will now never run
            outcome.failures.extend(
                _skipped(_pair_key(workload, config),
                         "fail-fast abort during workload preparation")
                for workload, config in runnable)
            return
        if not runnable:
            return

        # Batch wave: per-workload batches prime the detailed artifacts
        # of every runnable pair; the experiment wave below then
        # consumes them as cache hits.  A failed or hung batch never
        # fails the sweep — its pairs simply simulate per-config in the
        # next wave — so this wave runs without fail-fast and its
        # failures are recorded as degradations, not sweep failures.
        batch_wave = make_scheduler(False).run(
            [task(f"batch:{workload}:{index}", "worker.batch",
                  ExperimentPipeline.prepare_detailed_batch, workload,
                  list(configs))
             for index, (workload, configs)
             in enumerate(_batch_chunks(runnable, jobs))],
            on_result=merge_stats, on_error=merge_failed, wave="batch")
        for record in batch_wave.failures + batch_wave.timeouts:
            workload = record.key.split(":")[1]
            self.batch_degraded[workload] = record.error
            logger.warning("batched simulation for %s failed (%s); "
                           "degrading to per-config simulation",
                           workload, record.error)
            get_tracer().event("batch.degraded", workload=workload,
                               error=record.error)
        batch_wave.failures, batch_wave.timeouts = [], []
        outcome.absorb(batch_wave)

        def adopt_result(task: Task, payload: tuple) -> None:
            result, stats = payload
            self.store.merge_stats(stats)
            _, _, _, workload, (config,), _ = task.payload
            pipeline.adopt_result(workload, config, result)
            results[(workload, config.name)] = result

        experiment_wave = scheduler.run(
            [task(_pair_key(workload, config), "worker.experiment",
                  ExperimentPipeline.result, workload, config,
                  fault_key=_pair_key(workload, config))
             for workload, config in runnable],
            on_result=adopt_result, on_error=merge_failed,
            wave="experiment")
        outcome.absorb(experiment_wave)

    # ------------------------------------------------------------------
    # sweep state (incremental progress + resume)
    # ------------------------------------------------------------------

    def _sweep_id(self, pairs: list[tuple[str, BoomConfig]]) -> str:
        """Content address of this sweep's *work plan*.

        Covers every fingerprint-relevant setting and the exact pair
        set, but deliberately not the fault-injection knobs — a resumed
        run with faults disabled must still match the state its faulty
        predecessor recorded.
        """
        settings = self.settings
        return self.store.fingerprint("sweep", {
            "scale": settings.scale,
            "seed": settings.seed,
            "warmup": settings.warmup,
            "bic_threshold": settings.bic_threshold,
            "max_k": settings.max_k,
            "coverage": settings.coverage,
            "pairs": sorted(_pair_key(workload, config)
                            for workload, config in pairs),
            "model": MODEL_VERSION,
        })

    def _state_path(self) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / SWEEP_STATE_NAME

    def _load_state(self, sweep_id: str) -> dict | None:
        path = self._state_path()
        if path is None or not path.exists():
            return None
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(state, dict) or state.get("sweep_id") != sweep_id:
            return None
        return state

    def _apply_resume(self, pairs: list[tuple[str, BoomConfig]],
                      sweep_id: str, resume: bool,
                      outcome: ScheduleOutcome) \
            -> list[tuple[str, BoomConfig]]:
        """Carry a prior interrupted run's permanent failures forward.

        Completed experiments need no special handling — their results
        sit in the artifact store and resolve as cache hits — but
        known-permanent failures are deterministic and would only fail
        again, so with ``resume`` they are recorded without re-running:
        a pair's own failure, and a ``prepare:<workload>`` failure,
        whose workload's pairs are then skipped without re-profiling.
        """
        if not resume:
            return pairs
        state = self._load_state(sweep_id)
        if state is None:
            logger.info("no resumable sweep state; starting fresh")
            return pairs
        carried = {record["key"]: TaskRecord(
                       key=record["key"], kind=PERMANENT,
                       error=f"(carried from interrupted run) "
                             f"{record['error']}",
                       attempts=record.get("attempts", 1))
                   for record in state.get("failures", [])
                   if record.get("kind") == PERMANENT}
        unprepared = {workload: carried[f"prepare:{workload}"]
                      for workload, _ in pairs
                      if f"prepare:{workload}" in carried}
        outcome.failures.extend(unprepared.values())
        remaining: list[tuple[str, BoomConfig]] = []
        for workload, config in _drop_unprepared(pairs, unprepared, outcome):
            record = carried.get(_pair_key(workload, config))
            if record is None:
                remaining.append((workload, config))
            else:
                outcome.failures.append(record)
        return remaining

    def _write_state(self) -> None:
        """Persist the sweep state with a locked read-modify-write merge.

        Concurrent sweeps over the same cache each rewrite the shared
        ``sweep_state.json``; without the lock-and-merge, whichever
        process wrote last would erase the other's failures and
        ``--resume`` would re-run a known-permanent failure.  Under the
        lock, failures from a concurrent run of the *same* sweep are
        folded in; a state file from a different sweep is simply
        replaced.  Called twice per :meth:`run_all`: at start and at
        settle.
        """
        path = self._state_path()
        if path is None:
            return
        lock = path.with_name(path.name + ".lock")
        with FileLock(lock):
            prior = self._load_state(self._state["sweep_id"])
            if prior is not None:
                ours = {record["key"]
                        for record in self._state["failures"]}
                for record in prior.get("failures", []):
                    if record.get("key") not in ours:
                        self._state["failures"].append(record)
            atomic_write_text(path, json.dumps(self._state, indent=2,
                                               sort_keys=True))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _write_manifest(self, manifest: RunManifest) -> None:
        if self.cache_dir is None:
            return
        atomic_write_text(self.cache_dir / MANIFEST_NAME,
                          json.dumps(manifest.to_dict(), indent=2,
                                     sort_keys=True))
