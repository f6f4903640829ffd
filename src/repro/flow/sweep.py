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
the per-experiment stages then consume as cache hits.  Pass
``jobs > 1`` to :meth:`SweepRunner.run_all` to fan the work out across
processes in three waves — the per-workload stages, the batches, then
the per-experiment stages.  Every stage is fully seeded, so the
parallel path is bit-identical to the serial one.

Execution is *supervised* (:mod:`repro.flow.scheduler`): a crashed or
OOM-killed worker re-spawns the pool and re-enqueues only the lost
tasks, transient faults (I/O errors, corrupt artifacts) retry with
capped exponential backoff, hung tasks are abandoned after a per-task
timeout, and deterministic model failures are recorded in the manifest
while the rest of the sweep completes.  Results persist incrementally,
so a killed sweep resumes from its last completed experiment
(``repro-cli sweep --resume``); sweep progress is tracked in
``<cache>/sweep_state.json``, written when the sweep starts, after each
computed experiment and when it ends (cache hits join the next write).

Each ``run_all`` produces a :class:`~repro.pipeline.manifest.RunManifest`
(``SweepRunner.last_manifest``) with per-stage execution counts, cache
hits/misses, wall-clock timings, and the fault record (failures,
timeouts, retries); with a disk cache it is also written to
``<cache>/run_manifest.json``.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from time import perf_counter, sleep as _sleep
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import (
    PERMANENT,
    TRANSIENT,
    SweepInterrupted,
    classify_failure,
)
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
from repro.pipeline.stages import (
    ExperimentPipeline,
    RESULT_STAGE,
    import_compute_stack,
)
from repro.uarch.config import ALL_CONFIGS, BoomConfig
from repro.workloads.suite import workload_names

if TYPE_CHECKING:
    from repro.obs.progress import ProgressMonitor

__all__ = ["DEFAULT_CACHE_DIR", "MODEL_VERSION", "SweepRunner",
           "MANIFEST_NAME", "SWEEP_STATE_NAME"]

logger = logging.getLogger("repro.flow.sweep")

DEFAULT_CACHE_DIR = Path(".repro_cache")

MANIFEST_NAME = "run_manifest.json"
SWEEP_STATE_NAME = "sweep_state.json"

def _pair_key(workload: str, config: BoomConfig) -> str:
    return f"{workload}/{config.name}"


def _prepare_worker(task: tuple) -> tuple:
    """Process-pool worker: materialize one workload's shared stages."""
    workload, settings, root = task
    faults = FaultInjector.from_settings(settings, root)
    if faults is not None:
        faults.inject("worker.prepare", workload)
    store = ArtifactStore(root, faults=faults)
    pipeline = ExperimentPipeline(store, settings)
    pipeline.prepare_workload(workload)
    inline = None
    if root is None:
        # No shared disk: ship the live artifacts back to the parent.
        inline = (pipeline.selection(workload),
                  pipeline.checkpoints(workload))
    return store.stats_dict(), inline


def _batch_chunks(pairs: list[tuple[str, BoomConfig]], jobs: int) \
        -> list[tuple[str, tuple[BoomConfig, ...]]]:
    """Group pending pairs into per-workload batches for the pool.

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


def _batch_worker(task: tuple) -> tuple:
    """Process-pool worker: one batch of a workload's detailed stage.

    Primes the ``detailed_sim`` artifacts for a batch of one workload's
    configs (:mod:`repro.sim.batch`); the subsequent experiment wave
    then consumes them as cache hits.  A batch writes the same bytes as
    a batch of one, so a crashed or failed batch costs nothing but the
    priming — the per-experiment workers recompute whatever is missing.
    """
    workload, configs, settings, root, inline = task
    faults = FaultInjector.from_settings(settings, root)
    if faults is not None:
        faults.inject("worker.batch", workload)
    store = ArtifactStore(root, faults=faults)
    pipeline = ExperimentPipeline(store, settings)
    if inline is not None:
        pipeline.adopt_workload(workload, selection=inline[0],
                                checkpoints=inline[1])
    primed = pipeline.prepare_detailed_batch(workload, list(configs))
    return store.stats_dict(), primed


def _experiment_worker(task: tuple) -> tuple:
    """Process-pool worker: one experiment's detailed stages."""
    workload, config, settings, root, inline = task
    faults = FaultInjector.from_settings(settings, root)
    if faults is not None:
        faults.inject("worker.experiment", _pair_key(workload, config))
    store = ArtifactStore(root, faults=faults)
    pipeline = ExperimentPipeline(store, settings)
    if inline is not None:
        selection, checkpoints = inline
        pipeline.adopt_workload(workload, selection=selection,
                                checkpoints=checkpoints)
    result = pipeline.result(workload, config)
    return result.to_dict(), store.stats_dict()


class SweepRunner:
    """Runs and caches (workload, configuration) experiments."""

    def __init__(self, settings: FlowSettings | None = None,
                 cache_dir: Path | str | None = DEFAULT_CACHE_DIR) -> None:
        self.settings = settings if settings is not None else FlowSettings()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.store = ArtifactStore(
            self.cache_dir,
            faults=FaultInjector.from_settings(self.settings,
                                               self.cache_dir))
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

        With ``jobs > 1``, uncached work runs in a process pool at stage
        granularity: one task per workload for the shared stages, then
        one task per uncached experiment.  Execution is supervised —
        worker crashes respawn the pool and re-enqueue only the lost
        tasks, transient faults retry with backoff (``policy``), tasks
        hung past ``timeout`` seconds are abandoned, and permanent model
        failures are recorded in the run manifest while the remaining
        experiments complete (unless ``fail_fast``).

        ``resume=True`` picks an interrupted sweep back up: completed
        experiments are served from the incrementally-persisted artifact
        store, and experiments that already failed *permanently* are
        carried forward instead of being recomputed (transient and
        fail-fast-skipped ones are re-attempted).

        ``trace=True`` (or ``REPRO_TRACE=1``) records a structured trace
        of the run — pipeline-stage spans, scheduler lifecycle events,
        artifact cache events, simulator heartbeats — under
        ``<cache>/obs/<run_id>/`` and merges it into ``trace.json`` when
        the sweep finishes (``repro-cli trace`` renders it).
        ``progress=True`` additionally tails the heartbeats live and
        prints per-workload progress to stderr.  Tracing never alters
        artifacts or fingerprints; it requires a cache directory.
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
        session, monitor = self._start_observability(trace, progress)
        self._state = {
            "sweep_id": sweep_id,
            "total": len(pairs),
            "completed": [],
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
                if jobs > 1:
                    self._run_parallel(pending_pairs, jobs, results,
                                       outcome, policy=policy,
                                       timeout=timeout,
                                       fail_fast=fail_fast)
                else:
                    self._run_serial(pending_pairs, results, outcome,
                                     policy=policy, fail_fast=fail_fast)
        except SweepInterrupted as exc:
            interrupted = exc
        except KeyboardInterrupt:
            # guard not installed (worker thread) or a raw Ctrl-C that
            # beat the handler: settle the same way
            interrupted = SweepInterrupted("SIGINT")
        finally:
            trace_path = self._finish_observability(session, monitor)
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
    # observability session plumbing
    # ------------------------------------------------------------------

    def _start_observability(self, trace: bool, progress: bool) \
            -> tuple[TraceSession | None, ProgressMonitor | None]:
        """Open the trace session (and live monitor) for this run."""
        if not (trace or progress or tracing_requested()):
            return None, None
        if self.cache_dir is None:
            logger.warning("tracing requested but the sweep has no cache "
                           "directory; trace disabled")
            return None, None
        session = TraceSession(self.cache_dir, label="sweep").start()
        monitor = None
        if progress:
            from repro.obs.progress import ProgressMonitor

            monitor = ProgressMonitor(session.run_dir).start()
        return session, monitor

    def _finish_observability(self, session: TraceSession | None,
                              monitor: ProgressMonitor | None) -> str:
        """Stop the monitor, merge the trace; returns the trace path."""
        if monitor is not None:
            monitor.stop()
        if session is None:
            return ""
        merged = session.finish()
        return str(merged) if merged is not None else ""

    # ------------------------------------------------------------------
    # serial supervised execution
    # ------------------------------------------------------------------

    def _result_cached(self, workload: str, config: BoomConfig) -> bool:
        """Whether a pair's result exists, without counting a lookup."""
        return self.store.has(RESULT_STAGE,
                              self.pipeline.result_fingerprint(workload,
                                                               config))

    def _prime_batch(self, workload: str, configs: list[BoomConfig]) -> None:
        """Serial-path batch priming for one workload.

        Runs one batch over ``configs``, seeding the ``detailed_sim``
        artifacts the pair loop then consumes as cache hits.  Any batch
        fault degrades that workload back to per-config simulation —
        recorded in :attr:`batch_degraded`, never failing the sweep —
        so the retry/fail-fast semantics of the pair loop are untouched.
        """
        try:
            faults = self.store.faults
            if faults is not None:
                faults.inject("worker.batch", workload)
            primed = self.pipeline.prepare_detailed_batch(workload, configs)
        except SweepInterrupted:
            raise  # settle in run_all, not a degraded batch
        except Exception as exc:
            self._degrade_batch(workload, f"{type(exc).__name__}: {exc}")
        else:
            if primed:
                logger.info("batched %d configs for %s", primed, workload)

    def _degrade_batch(self, workload: str, error: str) -> None:
        """Record that ``workload``'s batch fell back to per-config runs."""
        self.batch_degraded[workload] = error
        logger.warning("batched simulation for %s failed (%s); degrading "
                       "to per-config simulation", workload, error)
        get_tracer().event("batch.degraded", workload=workload, error=error)

    def _run_serial(self, pairs: list[tuple[str, BoomConfig]],
                    results: dict[tuple[str, str], ExperimentResult],
                    outcome: ScheduleOutcome, *, policy: RetryPolicy,
                    fail_fast: bool) -> None:
        # each workload's uncached configs are prepared and primed as one
        # batch just before its first uncached pair, so progress advances
        # workload by workload
        unprimed: dict[str, list[BoomConfig]] = {}
        computed: set[str] = set()
        for workload, config in pairs:
            if not self._result_cached(workload, config):
                unprimed.setdefault(workload, []).append(config)
                computed.add(_pair_key(workload, config))
        # as in the parallel sweep, a workload whose shared stages failed
        # is one ``prepare:<workload>`` record; its uncached pairs are
        # skipped instead of re-failing on the same deterministic error
        unprepared: dict[str, TaskRecord] = {}
        for index, (workload, config) in enumerate(pairs):
            key = _pair_key(workload, config)
            if config in unprimed.get(workload, ()):
                configs = unprimed.pop(workload)
                _, failure = self._attempt(
                    f"prepare:{workload}",
                    lambda: self.pipeline.prepare_workload(workload),
                    outcome, policy)
                if failure is None:
                    self._prime_batch(workload, configs)
                else:
                    if fail_fast:
                        self._abort_serial(failure, pairs[index:], outcome)
                        return
                    unprepared[workload] = failure
            prepare_failure = unprepared.get(workload)
            if prepare_failure is not None and key in computed:
                outcome.failures.append(TaskRecord(
                    key=key, kind="skipped",
                    error=f"skipped: workload preparation failed "
                          f"({prepare_failure.error})", attempts=0))
                continue
            result, failure = self._attempt(
                key, lambda: self.run(workload, config), outcome, policy)
            if failure is None:
                results[(workload, config.name)] = result
                self._record_completion(key, persist=key in computed)
            elif fail_fast:
                self._abort_serial(failure, pairs[index + 1:], outcome)
                return

    @staticmethod
    def _attempt(key: str, fn: Callable[[], Any], outcome: ScheduleOutcome,
                 policy: RetryPolicy) -> tuple[Any, TaskRecord | None]:
        """Run ``fn`` under ``policy``: ``(value, None)`` on success.

        Transient faults retry with backoff (counted in
        ``outcome.retries``); a permanent fault, or the last transient
        one, is appended to ``outcome.failures`` and returned as
        ``(None, record)``.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                return fn(), None
            except SweepInterrupted:
                raise  # never a per-task failure record
            except Exception as exc:
                kind = classify_failure(exc)
                error = f"{type(exc).__name__}: {exc}"
                if kind == TRANSIENT and attempts < policy.max_attempts:
                    outcome.retries[key] = outcome.retries.get(key, 0) + 1
                    logger.warning("task %s attempt %d failed (%s); "
                                   "retrying", key, attempts, error)
                    _sleep(policy.backoff(attempts))
                    continue
                record = TaskRecord(key=key, kind=kind, error=error,
                                    attempts=attempts)
                outcome.failures.append(record)
                return None, record

    @staticmethod
    def _abort_serial(failure: TaskRecord,
                      rest: list[tuple[str, BoomConfig]],
                      outcome: ScheduleOutcome) -> None:
        """fail-fast: record every pair in ``rest`` as skipped."""
        outcome.aborted = True
        for workload, config in rest:
            outcome.failures.append(TaskRecord(
                key=_pair_key(workload, config), kind="skipped",
                error=f"skipped: fail-fast abort after {failure.key!r} "
                      f"failed", attempts=0))

    # ------------------------------------------------------------------
    # parallel supervised scheduling
    # ------------------------------------------------------------------

    def _run_parallel(self, pairs: list[tuple[str, BoomConfig]], jobs: int,
                      results: dict[tuple[str, str], ExperimentResult],
                      outcome: ScheduleOutcome, *, policy: RetryPolicy,
                      timeout: float | None, fail_fast: bool) -> None:
        pipeline = self.pipeline
        pending: list[tuple[str, BoomConfig]] = []
        for workload, config in pairs:
            cached = pipeline.peek_result(workload, config)
            if cached is not None:
                results[(workload, config.name)] = cached
                self._record_completion(_pair_key(workload, config),
                                        persist=False)
            else:
                pending.append((workload, config))
        if not pending:
            return
        # loaded once here, the stack is shared by every forked worker
        import_compute_stack()

        root = str(self.cache_dir) if self.cache_dir is not None else None
        seen: set[str] = set()
        needed: list[str] = []
        for workload, _ in pending:
            if workload in seen:
                continue
            seen.add(workload)
            if not pipeline.workload_prepared(workload):
                needed.append(workload)

        scheduler = SupervisedScheduler(
            max_workers=jobs, policy=policy, timeout=timeout,
            fail_fast=fail_fast)

        inline: dict[str, tuple] = {}

        def adopt_prepared(task: Task, payload: tuple) -> None:
            workload = task.payload[0]
            stats, shipped = payload
            self.store.merge_stats(stats)
            if shipped is not None:
                inline[workload] = shipped
                pipeline.adopt_workload(workload, selection=shipped[0],
                                        checkpoints=shipped[1])

        prepare_wave = scheduler.run(
            [Task(key=f"prepare:{workload}", fn=_prepare_worker,
                  payload=(workload, self.settings, root))
             for workload in needed],
            on_result=adopt_prepared)
        outcome.absorb(prepare_wave)

        # a workload whose shared stages permanently failed poisons all
        # of its experiments: record them as skipped instead of letting
        # every worker re-fail on the same deterministic error
        bad_workloads = {
            record.key.split(":", 1)[1]: record
            for record in prepare_wave.failures
            if record.key.startswith("prepare:")}
        runnable: list[tuple[str, BoomConfig]] = []
        for workload, config in pending:
            record = bad_workloads.get(workload)
            if record is None:
                runnable.append((workload, config))
            else:
                outcome.failures.append(TaskRecord(
                    key=_pair_key(workload, config), kind="skipped",
                    error=f"skipped: workload preparation failed "
                          f"({record.error})", attempts=0))
        if outcome.aborted:
            # fail-fast tripped during workload preparation: account for
            # the experiments that will now never run
            recorded = {record.key for record in outcome.failures}
            for workload, config in runnable:
                key = _pair_key(workload, config)
                if key not in recorded:
                    outcome.failures.append(TaskRecord(
                        key=key, kind="skipped",
                        error="skipped: fail-fast abort during workload "
                              "preparation", attempts=0))
            return
        if not runnable:
            return

        if root is not None:
            # Batch wave: tasks of per-workload batches prime the
            # detailed artifacts of every runnable pair; the experiment
            # wave below then consumes them as cache hits.  A failed or
            # hung batch never fails the sweep — its pairs simply
            # simulate per-config in the next wave — so this scheduler
            # runs without fail-fast and its failures are recorded as
            # degradations, not sweep failures.  (With no shared cache
            # directory a worker's artifacts could not reach the
            # experiment workers, so the wave is skipped.)
            batch_scheduler = SupervisedScheduler(
                max_workers=jobs, policy=policy, timeout=timeout,
                fail_fast=False)
            batch_wave = batch_scheduler.run(
                [Task(key=f"batch:{workload}:{index}", fn=_batch_worker,
                      payload=(workload, configs, self.settings,
                               root, inline.get(workload)))
                 for index, (workload, configs)
                 in enumerate(_batch_chunks(runnable, jobs))],
                on_result=lambda task, payload:
                    self.store.merge_stats(payload[0]))
            outcome.executions.extend(batch_wave.executions)
            for key, count in batch_wave.retries.items():
                outcome.retries[key] = outcome.retries.get(key, 0) + count
            outcome.respawns += batch_wave.respawns
            for record in batch_wave.failures + batch_wave.timeouts:
                self._degrade_batch(record.key.split(":")[1], record.error)

        def adopt_result(task: Task, payload: tuple) -> None:
            workload, config = task.payload[0], task.payload[1]
            data, stats = payload
            self.store.merge_stats(stats)
            result = ExperimentResult.from_dict(data)
            pipeline.adopt_result(workload, config, result)
            results[(workload, config.name)] = result
            self._record_completion(task.key)

        experiment_wave = scheduler.run(
            [Task(key=_pair_key(workload, config), fn=_experiment_worker,
                  payload=(workload, config, self.settings, root,
                           inline.get(workload)))
             for workload, config in runnable],
            on_result=adopt_result)
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
        again, so with ``resume`` they are recorded without re-running.
        """
        if not resume:
            return pairs
        state = self._load_state(sweep_id)
        if state is None:
            logger.info("no resumable sweep state; starting fresh")
            return pairs
        self.resumed_completed = len(state.get("completed", []))
        carried = {record["key"]: record
                   for record in state.get("failures", [])
                   if record.get("kind") == PERMANENT}
        if not carried:
            return pairs
        remaining: list[tuple[str, BoomConfig]] = []
        for workload, config in pairs:
            record = carried.get(_pair_key(workload, config))
            if record is None:
                remaining.append((workload, config))
            else:
                outcome.failures.append(TaskRecord(
                    key=record["key"], kind=PERMANENT,
                    error=f"(carried from interrupted run) "
                          f"{record['error']}",
                    attempts=record.get("attempts", 1)))
        return remaining

    def _record_completion(self, key: str, persist: bool = True) -> None:
        """Mark ``key`` completed in the sweep state.

        A computed pair is persisted at once.  A cache hit
        (``persist=False``) rides along with the next write, a computed
        pair's or the final one in :meth:`run_all`: ``--resume`` serves
        hits from the store anyway, and a warm run would otherwise take
        the state lock once per pair.
        """
        state = getattr(self, "_state", None)
        if state is None:
            return
        if key not in state["completed"]:
            state["completed"].append(key)
        if persist:
            self._write_state()

    def _write_state(self) -> None:
        """Persist sweep progress with a locked read-modify-write merge.

        Concurrent sweeps over the same cache each rewrite the shared
        ``sweep_state.json``; without the lock-and-merge, whichever
        process wrote last would erase the other's ``completed`` keys
        and ``--resume`` would silently redo (or worse, mis-carry) work.
        Under the lock, completions from a concurrent run of the *same*
        sweep are folded in; a state file from a different sweep is
        simply replaced.
        """
        path = self._state_path()
        if path is None:
            return
        lock = path.with_name(path.name + ".lock")
        with FileLock(lock):
            prior = self._load_state(self._state["sweep_id"])
            if prior is not None:
                merged = list(self._state["completed"])
                known = set(merged)
                for key in prior.get("completed", []):
                    if key not in known:
                        known.add(key)
                        merged.append(key)
                self._state["completed"] = merged
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
