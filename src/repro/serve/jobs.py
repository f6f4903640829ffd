"""The job table: request-hash-keyed dedup of in-flight and done work.

One :class:`Job` per distinct request hash.  The first submission
creates the job; every later identical submission *attaches* to it
(``job.clients`` grows, ``deduped`` accounting increments) — whether
the job is still queued, already running, or long done.  All attached
clients read the same canonical result text, so "byte-identical results
for every client" holds by construction; the lease arbitration in the
artifact store additionally dedupes against sweeps running *outside*
the server on the same cache.

A failed or cancelled job does not poison its hash: the next identical
submission replaces it with a fresh attempt (transient environment
errors are worth retrying; the supervised scheduler inside the job
already retried the cheap cases).

Cancellation is subscription-scoped: cancelling removes *that client's*
interest, and only a queued job with no remaining subscribers is
actually cancelled — one impatient client cannot kill a study seven
others are waiting on.  Running jobs finish (their artifacts are cached
work, never wasted); a best-effort ``cancel_requested`` flag is left
for the runner to observe between experiments.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.serve.protocol import JobRequest, request_hash

__all__ = ["Job", "JobTable", "QUEUED", "RUNNING", "DONE", "FAILED",
           "CANCELLED"]

QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")

#: states in which a new identical submission attaches instead of
#: creating a fresh job
_ATTACHABLE = (QUEUED, RUNNING, DONE)


@dataclass
class Job:
    """One unit of deduplicated work and its lifecycle bookkeeping."""

    id: str
    request: JobRequest
    state: str = QUEUED
    clients: list[str] = field(default_factory=list)
    error: str | None = None
    error_kind: str | None = None
    #: canonical result body — rendered exactly once, served verbatim
    #: to every subscriber
    result_text: str | None = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    cancel_requested: bool = False
    #: live progress sources, attached by the worker while running
    runner: Any = None
    tap: Any = None
    done_event: threading.Event = field(default_factory=threading.Event,
                                        repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED)

    def progress(self) -> dict:
        out: dict = {}
        runner = self.runner
        if runner is not None:
            try:
                out = runner.progress()
            except Exception:  # progress must never fail a status read
                out = {}
        tap = self.tap
        if tap is not None:
            try:
                tap.poll()
                streams = tap.snapshot()
            except Exception:
                streams = {}
            if streams:
                out["streams"] = streams
        return out

    def status_dict(self) -> dict:
        out = {
            "id": self.id,
            "state": self.state,
            "kind": self.request.kind,
            "clients": sorted(set(self.clients)),
            "subscribers": len(self.clients),
            "created": self.created,
        }
        if self.started is not None:
            out["started"] = self.started
        if self.finished is not None:
            out["finished"] = self.finished
        if self.error is not None:
            out["error"] = self.error
            out["error_kind"] = self.error_kind
        if self.cancel_requested:
            out["cancel_requested"] = True
        if self.state == RUNNING:
            out["progress"] = self.progress()
        return out


class JobTable:
    """Thread-safe request-hash-keyed registry of jobs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: total submissions that attached to an existing job
        self.deduped = 0
        #: total fresh computes created
        self.created = 0

    # ------------------------------------------------------------------
    # submission / lookup
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest, client: str) -> tuple[Job, bool]:
        """Create or attach; returns ``(job, created)``."""
        job_id = request_hash(request)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state in _ATTACHABLE:
                job.clients.append(client)
                self.deduped += 1
                return job, False
            # absent, failed, or cancelled: (re)create
            job = Job(id=job_id, request=request, clients=[client])
            self._jobs[job_id] = job
            self.created += 1
            return job, True

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # lifecycle transitions (called by the worker tier)
    # ------------------------------------------------------------------

    def mark_running(self, job: Job) -> bool:
        """Queued -> running; ``False`` if the job was cancelled first."""
        with self._lock:
            if job.state != QUEUED:
                return False
            job.state = RUNNING
            job.started = time.time()
            return True

    def mark_done(self, job: Job, result_text: str) -> None:
        """Running -> done."""
        with self._lock:
            job.result_text = result_text
            job.state = DONE
            job.finished = time.time()
        job.done_event.set()

    def mark_failed(self, job: Job, error: str, kind: str) -> None:
        """Running -> failed."""
        with self._lock:
            job.error = error
            job.error_kind = kind
            job.state = FAILED
            job.finished = time.time()
        job.done_event.set()

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------

    def cancel(self, job_id: str, client: str) -> Job | None:
        """Withdraw ``client``'s subscription; cancel if nobody is left.

        Returns the job, in whatever state it ended, or ``None`` if
        the id is unknown.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if not job.terminal:
                try:
                    job.clients.remove(client)
                except ValueError:
                    pass  # not a subscriber: a no-op, not an error
            if job.clients or job.terminal:
                return job
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = time.time()
                job.done_event.set()
            elif job.state == RUNNING:
                job.cancel_requested = True
            return job

    def cancel_queued(self, job: Job) -> None:
        """Force-cancel a still-queued job (server drain)."""
        with self._lock:
            if job.state != QUEUED:
                return
            job.state = CANCELLED
            job.finished = time.time()
        job.done_event.set()

    def discard(self, job: Job) -> None:
        """Roll back a freshly created job that could not be enqueued
        (bounded-queue backpressure)."""
        with self._lock:
            if self._jobs.get(job.id) is not job or job.state != QUEUED:
                return
            del self._jobs[job.id]
            self.created -= 1
            job.state = CANCELLED
            job.finished = time.time()
        job.done_event.set()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def counts(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {"jobs": len(self._jobs), "by_state": by_state,
                    "created": self.created, "deduped": self.deduped}
