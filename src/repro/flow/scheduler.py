"""Supervised task scheduling for long-running sweep campaigns.

``pool.map`` treats one bad task as fatal: a worker OOM-kill raises
``BrokenProcessPool`` into the parent, aborts the sweep, and discards
every already-completed experiment.  A full study is a campaign of
hundreds of independent, deterministic, content-addressed tasks — the
right response to one lost worker is to respawn the pool, re-enqueue
only the lost tasks, and keep going.

:class:`SupervisedScheduler` drives a ``submit``/``as_completed`` loop
with:

* **failure classification** via :func:`repro.errors.classify_failure`
  — transient failures (crashed workers, I/O errors, corrupt artifacts)
  are retried with capped exponential backoff; permanent failures
  (deterministic model errors) are recorded once and never retried;
* **pool supervision** — a ``BrokenProcessPool`` kills only the attempt,
  not the campaign: the pool is re-spawned and exactly the in-flight
  tasks are re-enqueued (completed results are never recomputed, they
  already live in the artifact store);
* **per-task timeouts** — a task that exceeds its wall-clock budget is
  abandoned and recorded under ``timeouts``; since a running process
  cannot be cancelled, the pool is recycled and the innocent in-flight
  tasks are re-submitted without being charged an attempt;
* **graceful degradation** — the scheduler always runs the campaign to
  the end (unless ``fail_fast``), returning a
  :class:`ScheduleOutcome` whose ``failures``/``timeouts``/``retries``
  feed the :class:`~repro.pipeline.manifest.RunManifest`.

The executor factory, clock and sleep function are injectable so tests
can drive every recovery path deterministically and without real
delays, and so a ``jobs=1`` sweep can run its tasks in-process through
the same loop.  The default factory imports the process pool only when
it builds one, so such a sweep never loads ``multiprocessing``.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    wait as wait_futures,
)
from dataclasses import dataclass, field
from typing import IO, Any, Callable

from repro.errors import (
    PERMANENT,
    TRANSIENT,
    classify_failure,
)
from repro.obs.tracer import ensure_process_tracer, get_tracer
from repro.pipeline.manifest import TaskExecution, TaskRecord

__all__ = ["RetryPolicy", "Task", "TaskEnvelope", "ScheduleOutcome",
           "SupervisedScheduler"]

logger = logging.getLogger("repro.flow.scheduler")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and capped exponential backoff for transient faults."""

    max_attempts: int = 3       # total attempts per task (1 = no retries)
    backoff_base: float = 0.05  # seconds before the first retry
    backoff_cap: float = 2.0    # ceiling for the exponential growth

    def backoff(self, attempt: int) -> float:
        """Delay before re-running a task that has made ``attempt`` tries."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a picklable worker fn and its payload."""

    key: str                 # stable identity, e.g. "qsort/MediumBOOM"
    fn: Callable[[Any], Any]
    payload: Any


@dataclass(frozen=True)
class TaskEnvelope:
    """A worker's result wrapped with its execution provenance.

    Every pool task runs through :func:`_run_task`, which records where
    and when the attempt actually executed; the scheduler unwraps the
    envelope in the parent, so callers and ``on_result`` hooks still see
    the bare result while the manifest gains per-task worker PID and
    wall-clock bounds.
    """

    pid: int
    started: float      # wall clock (time.time) at attempt start
    ended: float        # wall clock at attempt end
    duration: float     # monotonic elapsed seconds
    result: Any


def _run_task(payload: tuple) -> TaskEnvelope:
    """Module-level (picklable) wrapper around every scheduled task.

    Worker-side tracing bootstraps here: if the parent exported a traced
    run directory, this process opens its own event file, the only
    channel from a pool worker back to its parent besides the task's
    return value.  The task body runs inside a ``task`` span; failures
    are recorded as an event and re-raised unchanged so the scheduler's
    classification and retry logic see the original exception.
    """
    fn, arg, key = payload
    tracer = ensure_process_tracer()
    started_wall = time.time()
    started_mono = time.monotonic()
    try:
        with tracer.span("task", key=key):
            result = fn(arg)
    except BaseException as exc:
        tracer.event("task.error", key=key, error=type(exc).__name__)
        raise
    return TaskEnvelope(
        pid=os.getpid(), started=started_wall, ended=time.time(),
        duration=time.monotonic() - started_mono, result=result)


@dataclass
class ScheduleOutcome:
    """What one scheduler run produced, completed and not."""

    results: dict[str, Any] = field(default_factory=dict)
    failures: list[TaskRecord] = field(default_factory=list)
    timeouts: list[TaskRecord] = field(default_factory=list)
    retries: dict[str, int] = field(default_factory=dict)
    executions: list[TaskExecution] = field(default_factory=list)
    respawns: int = 0
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.timeouts and not self.aborted

    def absorb(self, other: "ScheduleOutcome") -> None:
        """Fold another wave's outcome into this one."""
        self.results.update(other.results)
        self.failures.extend(other.failures)
        self.timeouts.extend(other.timeouts)
        for key, count in other.retries.items():
            self.retries[key] = self.retries.get(key, 0) + count
        self.executions.extend(other.executions)
        self.respawns += other.respawns
        self.aborted = self.aborted or other.aborted


class _WaveProgress:
    """``--progress`` for one wave: a line per task as it settles.

    A task settles when it will not run again: it completed, failed for
    good or timed out.  The supervised loop calls :meth:`update` in the
    parent after each round, so progress needs no thread and no trace.
    """

    def __init__(self, stream: IO[str], wave: str, total: int,
                 clock: Callable[[], float]) -> None:
        self.stream = stream
        self.wave = wave
        self.total = total
        self._clock = clock
        self._started = clock()
        self._seen = (0, 0, 0)

    def update(self, outcome: ScheduleOutcome) -> None:
        results, failures, timeouts = self._seen
        settled = [(key, "ok") for key in list(outcome.results)[results:]]
        settled += [(record.key, f"failed ({record.kind})")
                    for record in outcome.failures[failures:]]
        settled += [(record.key, "timed out")
                    for record in outcome.timeouts[timeouts:]]
        if not settled:
            return
        self._seen = (len(outcome.results), len(outcome.failures),
                      len(outcome.timeouts))
        done = results + failures + timeouts
        elapsed = self._clock() - self._started
        lines = []
        for key, status in settled:
            done += 1
            eta = elapsed / done * (self.total - done)
            lines.append(f"progress: {self.wave} {done}/{self.total} "
                         f"{key} {status}, {elapsed:.1f}s elapsed, "
                         f"eta {eta:.1f}s\n")
        try:
            self.stream.write("".join(lines))
            self.stream.flush()
        except (OSError, ValueError):
            pass  # a closed terminal must not fail the sweep


def _process_pool(workers: int) -> Any:
    """The default executor: a fresh process pool of ``workers``."""
    # multiprocessing loads only when a run actually builds a pool
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _render(exc: BaseException) -> str:
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


class SupervisedScheduler:
    """Retry/timeout-supervised fan-out over a (re-spawnable) pool."""

    def __init__(self, max_workers: int,
                 policy: RetryPolicy | None = None,
                 timeout: float | None = None,
                 fail_fast: bool = False,
                 executor_factory: Callable[[int], Any] | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 progress: IO[str] | None = None) -> None:
        self.max_workers = max(1, max_workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self.timeout = timeout
        self.fail_fast = fail_fast
        self.progress = progress
        self._executor_factory = (
            executor_factory if executor_factory is not None
            else _process_pool)
        self._sleep = sleep
        self._clock = clock

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> Any:
        return self._executor_factory(self.max_workers)

    def _kill(self, pool: Any) -> None:
        """Tear a pool down without waiting on its (possibly hung) work.

        Workers get SIGKILL, not SIGTERM: a SIGTERM that lands before
        CPython's after-fork signal reset is swallowed, and a worker that
        survives blocks on the call queue while the ``concurrent.futures``
        exit hook joins it forever.
        """
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:  # already dead / not ours to kill
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the supervised loop
    # ------------------------------------------------------------------

    def run(self, tasks: list[Task],
            on_result: Callable[[Task, Any], None] | None = None,
            on_error: Callable[[Task, Exception], None] | None = None,
            *, wave: str = "tasks") -> ScheduleOutcome:
        """Run ``tasks`` to completion, surviving crashes and hangs.

        ``on_result`` is invoked in the parent as each task completes,
        which is what lets the sweep persist results incrementally (and
        therefore resume after a kill).  ``on_error`` sees the exception
        of every attempt that raised one (a crashed worker raises none),
        before it is retried or recorded.  With a ``progress`` stream,
        each settled task writes one line to it naming ``wave``.
        """
        outcome = ScheduleOutcome()
        if not tasks:
            return outcome
        progress = _WaveProgress(self.progress, wave, len(tasks),
                                 self._clock) \
            if self.progress is not None else None
        queue: deque[Task] = deque(tasks)
        attempts: dict[str, int] = {task.key: 0 for task in tasks}
        inflight: dict[Future, Task] = {}
        deadlines: dict[Future, float] = {}
        pool = self._spawn()
        try:
            while queue or inflight:
                pool = self._fill(pool, queue, inflight, deadlines,
                                  attempts, outcome)
                if not inflight:
                    continue
                done = self._wait(inflight, deadlines)
                crashed = self._collect(done, inflight, deadlines, queue,
                                        attempts, outcome, on_result,
                                        on_error)
                if crashed:
                    pool = self._recover_crash(pool, inflight, deadlines,
                                               queue, attempts, outcome)
                elif self._expire(inflight, deadlines, attempts, outcome):
                    pool = self._recycle(pool, inflight, deadlines, queue,
                                         attempts, outcome)
                if progress is not None:
                    progress.update(outcome)
                if self.fail_fast and outcome.failures:
                    self._abort(inflight, deadlines, queue, attempts,
                                outcome)
                    break
        finally:
            self._kill(pool)
        return outcome

    # ------------------------------------------------------------------
    # loop pieces
    # ------------------------------------------------------------------

    def _fill(self, pool: Any, queue: deque[Task],
              inflight: dict[Future, Task], deadlines: dict[Future, float],
              attempts: dict[str, int], outcome: ScheduleOutcome) -> Any:
        """Submit queued tasks up to the worker count.

        Capping in-flight submissions at ``max_workers`` keeps the
        per-task timeout honest: a submitted task is (about to be)
        running, so its deadline clock starts at submission.
        """
        tracer = get_tracer()
        while queue and len(inflight) < self.max_workers:
            task = queue.popleft()
            try:
                future = pool.submit(_run_task,
                                     (task.fn, task.payload, task.key))
            except (BrokenExecutor, RuntimeError) as exc:
                # the pool died between completions; respawn and retry
                logger.warning("pool broken at submit (%s); respawning",
                               _render(exc))
                queue.appendleft(task)
                self._kill(pool)
                outcome.respawns += 1
                tracer.event("pool.respawn", reason="broken-at-submit")
                pool = self._spawn()
                continue
            attempts[task.key] += 1
            tracer.event("task.submit", key=task.key,
                         attempt=attempts[task.key])
            inflight[future] = task
            if self.timeout is not None:
                deadlines[future] = self._clock() + self.timeout
        return pool

    def _wait(self, inflight: dict[Future, Task],
              deadlines: dict[Future, float]) -> list[Future]:
        wait_timeout = (max(0.0, min(deadlines.values()) - self._clock())
                        if deadlines else None)
        done, _ = wait_futures(list(inflight), timeout=wait_timeout,
                               return_when=FIRST_COMPLETED)
        return list(done)

    def _collect(self, done: list[Future], inflight: dict[Future, Task],
                 deadlines: dict[Future, float], queue: deque[Task],
                 attempts: dict[str, int], outcome: ScheduleOutcome,
                 on_result: Callable[[Task, Any], None] | None,
                 on_error: Callable[[Task, Exception], None] | None) \
            -> bool:
        """Process finished futures; returns whether the pool broke."""
        crashed = False
        delays: list[float] = []
        for future in done:
            task = inflight.pop(future)
            deadlines.pop(future, None)
            try:
                result = future.result()
            except BrokenExecutor as exc:
                crashed = True
                delays.append(self._requeue(task, exc, queue, attempts,
                                            outcome))
            except Exception as exc:
                if on_error is not None:
                    on_error(task, exc)
                if classify_failure(exc) == TRANSIENT:
                    delays.append(self._requeue(task, exc, queue, attempts,
                                                outcome))
                else:
                    logger.warning("task %s failed permanently: %s",
                                   task.key, _render(exc))
                    outcome.failures.append(TaskRecord(
                        key=task.key, kind=PERMANENT, error=_render(exc),
                        attempts=attempts[task.key]))
            else:
                if isinstance(result, TaskEnvelope):
                    outcome.executions.append(TaskExecution(
                        key=task.key, pid=result.pid,
                        started=result.started, ended=result.ended,
                        attempts=attempts[task.key]))
                    result = result.result
                get_tracer().event("task.done", key=task.key,
                                   attempt=attempts[task.key])
                outcome.results[task.key] = result
                if on_result is not None:
                    on_result(task, result)
        delays = [delay for delay in delays if delay > 0]
        if delays:
            self._sleep(max(delays))
        return crashed

    def _requeue(self, task: Task, exc: BaseException, queue: deque[Task],
                 attempts: dict[str, int],
                 outcome: ScheduleOutcome) -> float:
        """Retry a transiently-failed task, or record it as exhausted.

        Returns the backoff delay to apply (0 when the task is not
        retried).
        """
        made = attempts[task.key]
        if made < self.policy.max_attempts:
            logger.warning("task %s attempt %d failed (%s); retrying",
                           task.key, made, _render(exc))
            outcome.retries[task.key] = outcome.retries.get(task.key, 0) + 1
            queue.append(task)
            backoff = self.policy.backoff(made)
            get_tracer().event("task.retry", key=task.key, attempt=made,
                               error=_render(exc), backoff=backoff)
            return backoff
        logger.warning("task %s exhausted %d attempts (%s)",
                       task.key, made, _render(exc))
        get_tracer().event("task.failed", key=task.key, attempt=made,
                           error=_render(exc))
        outcome.failures.append(TaskRecord(
            key=task.key, kind=TRANSIENT, error=_render(exc),
            attempts=made))
        return 0.0

    def _recover_crash(self, pool: Any, inflight: dict[Future, Task],
                       deadlines: dict[Future, float], queue: deque[Task],
                       attempts: dict[str, int],
                       outcome: ScheduleOutcome) -> Any:
        """Respawn after ``BrokenProcessPool``, re-enqueueing lost tasks.

        Every future still in flight is lost with the pool.  The task
        that actually crashed the worker cannot be told apart from its
        innocent neighbours, so each lost task is charged the attempt it
        just made and retried within the normal budget.
        """
        for future, task in list(inflight.items()):
            self._requeue(task, BrokenExecutor("worker process crashed"),
                          queue, attempts, outcome)
        inflight.clear()
        deadlines.clear()
        self._kill(pool)
        outcome.respawns += 1
        get_tracer().event("pool.respawn", reason="crash")
        logger.warning("process pool crashed; respawned (lost tasks "
                       "re-enqueued)")
        return self._spawn()

    def _expire(self, inflight: dict[Future, Task],
                deadlines: dict[Future, float], attempts: dict[str, int],
                outcome: ScheduleOutcome) -> bool:
        """Abandon tasks past their deadline; returns whether any were."""
        if self.timeout is None:
            return False
        now = self._clock()
        expired = [future for future, deadline in deadlines.items()
                   if now >= deadline and not future.done()]
        for future in expired:
            task = inflight.pop(future)
            deadlines.pop(future, None)
            future.cancel()
            logger.warning("task %s exceeded %gs timeout; abandoned",
                           task.key, self.timeout)
            get_tracer().event("task.timeout", key=task.key,
                               timeout=self.timeout,
                               attempt=attempts[task.key])
            outcome.timeouts.append(TaskRecord(
                key=task.key, kind="timeout",
                error=f"exceeded {self.timeout:g}s timeout",
                attempts=attempts[task.key]))
        return bool(expired)

    def _recycle(self, pool: Any, inflight: dict[Future, Task],
                 deadlines: dict[Future, float], queue: deque[Task],
                 attempts: dict[str, int], outcome: ScheduleOutcome) -> Any:
        """Replace a pool that holds an unkillable hung task.

        The still-healthy in-flight tasks are victims of the recycle,
        not failures: they are re-enqueued with the attempt they lost
        refunded.
        """
        for future, task in list(inflight.items()):
            attempts[task.key] -= 1
            queue.append(task)
        inflight.clear()
        deadlines.clear()
        self._kill(pool)
        outcome.respawns += 1
        get_tracer().event("pool.respawn", reason="timeout-recycle")
        return self._spawn()

    def _abort(self, inflight: dict[Future, Task],
               deadlines: dict[Future, float], queue: deque[Task],
               attempts: dict[str, int], outcome: ScheduleOutcome) -> None:
        """fail-fast: record everything not yet finished as skipped."""
        trigger = outcome.failures[0].key
        for task in list(queue) + list(inflight.values()):
            outcome.failures.append(TaskRecord(
                key=task.key, kind="skipped",
                error=f"skipped: fail-fast abort after {trigger!r} failed",
                attempts=attempts[task.key]))
        queue.clear()
        inflight.clear()
        deadlines.clear()
        outcome.aborted = True
