"""Structured tracing: nested spans and events on a monotonic clock.

A :class:`Tracer` appends newline-delimited JSON events to one file per
process.  Every event carries the process id and a monotonic timestamp;
the file's first record is a *meta* event anchoring that monotonic clock
to the wall clock, which is what lets :mod:`repro.obs.merge` stitch the
per-process files of a parallel sweep onto one unified timeline.

Event records (one JSON object per line):

``{"type": "meta", "pid", "wall", "mono", "role"}``
    First line of every file: wall/monotonic clock anchor.
``{"type": "B", "name", "ts", "pid", "tid", "sid", "parent", "attrs"}``
    Span begin.  ``sid`` is unique within the process; ``parent`` is the
    enclosing span's ``sid`` (or ``None`` for a root).
``{"type": "E", "name", "ts", "pid", "tid", "sid", "attrs"?}``
    Span end, matched to its begin by ``sid``.  ``attrs`` is present
    when the span has attributes, including those set after entry with
    :meth:`Span.set` (a simulator's totals on its span).
``{"type": "I", "name", "ts", "pid", "tid", "attrs"}``
    Instant event (artifact hits, task lifecycle, flight-recorder
    samples named ``flight``; see :mod:`repro.obs.flight`).

The module-level tracer is what instrumented library code talks to via
:func:`get_tracer`.  When tracing is off it is a :class:`NullTracer`
whose ``span``/``event`` are constant-time no-ops, so
instrumentation costs nothing measurable on the hot paths; when it is
on, writes are line-buffered and serialized by a lock, so concurrent
threads can never tear a line.  Observability must never perturb
results: tracers only *observe* values, they are excluded from every
artifact fingerprint, and a failed trace write is swallowed rather than
allowed to fail a run.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, IO

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "OBS_DIR_ENV",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "configure_tracer",
    "ensure_process_tracer",
    "get_tracer",
    "reset_tracer",
    "tracing_requested",
]

#: user-facing switch: ``REPRO_TRACE=1`` enables tracing in the CLI
TRACE_ENV = "REPRO_TRACE"
#: run-directory handoff from the sweep parent to its pool workers; set
#: only while a traced session runs
OBS_DIR_ENV = "REPRO_OBS_DIR"
_TRUTHY = ("1", "true", "yes", "on")


def tracing_requested(environ: dict | None = None) -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing."""
    environ = os.environ if environ is None else environ
    return str(environ.get(TRACE_ENV, "")).strip().lower() in _TRUTHY


class Span:
    """One live span; a context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "sid", "parent", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.sid = -1
        self.parent: int | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes after entry (recorded at span end)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._begin(self)
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.tracer._end(self)


class _NullSpan:
    """Shared, reentrant no-op span for the disabled path."""

    __slots__ = ()

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    def span(self, _name: str, **_attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, _name: str, **_attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Appends span/event records to one JSONL file (or a list, in tests)."""

    enabled = True

    def __init__(self, path: Path | str | None = None, *,
                 sink: list | None = None,
                 role: str = "main",
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time) -> None:
        if (path is None) == (sink is None):
            raise ValueError("exactly one of path/sink is required")
        self.path = Path(path) if path is not None else None
        self.pid = os.getpid()
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._sink: list | None = sink
        self._file: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # line-buffered append: one write() per complete line, so a
            # crash can tear at most the final line (the merger skips it)
            self._file = open(self.path, "a", buffering=1)
        self._emit({"type": "meta", "pid": self.pid, "role": role,
                    "wall": wall(), "mono": clock()})

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _emit(self, record: dict) -> None:
        if self._sink is not None:
            self._sink.append(record)
            return
        file = self._file
        if file is None:
            return
        line = json.dumps(record, separators=(",", ":"),
                          default=str) + "\n"
        try:
            with self._lock:
                file.write(line)
        except (OSError, ValueError):
            pass  # observability must never fail the run

    def _stack(self) -> list:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = []
            self._stacks.spans = stack
        return stack

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def _begin(self, span: Span) -> None:
        stack = self._stack()
        span.sid = next(self._ids)
        span.parent = stack[-1].sid if stack else None
        stack.append(span)
        self._emit({"type": "B", "name": span.name, "ts": self._clock(),
                    "pid": self.pid, "tid": threading.get_ident(),
                    "sid": span.sid, "parent": span.parent,
                    "attrs": span.attrs or {}})

    def _end(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop through to the span
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        record = {"type": "E", "name": span.name, "ts": self._clock(),
                  "pid": self.pid, "tid": threading.get_ident(),
                  "sid": span.sid}
        if span.attrs:
            record["attrs"] = span.attrs
        self._emit(record)

    def event(self, name: str, **attrs: Any) -> None:
        self._emit({"type": "I", "name": name, "ts": self._clock(),
                    "pid": self.pid, "tid": threading.get_ident(),
                    "attrs": attrs})

    def close(self) -> None:
        file = self._file
        self._file = None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# the process-global tracer
# ----------------------------------------------------------------------

_GLOBAL: Tracer | None = None


def get_tracer() -> Tracer | NullTracer:
    """The process's tracer; a no-op :class:`NullTracer` when disabled.

    Fork-safe: a child process that inherited the parent's tracer is
    rerouted to its own event file before it can write a single record
    with the wrong pid.
    """
    tracer = _GLOBAL
    if tracer is None:
        return NULL_TRACER
    if tracer.pid != os.getpid():
        return ensure_process_tracer()
    return tracer


def configure_tracer(path: Path | str | None = None, *,
                     sink: list | None = None,
                     role: str = "main") -> Tracer:
    """Install (replacing any previous) the process-global tracer."""
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close()
    _GLOBAL = Tracer(path, sink=sink, role=role)
    return _GLOBAL


def reset_tracer() -> None:
    """Close and remove the process-global tracer (tests, session end)."""
    global _GLOBAL
    if _GLOBAL is not None:
        _GLOBAL.close()
        _GLOBAL = None


def ensure_process_tracer() -> Tracer | NullTracer:
    """Worker-side lazy setup from the ``REPRO_OBS_DIR`` environment.

    Called at pool-task entry: when the parent exported an observability
    run directory and this process has no tracer of its *own*, open this
    process's ``events-<pid>.jsonl``.  A forked worker inherits the
    parent's live tracer object — detected by its recorded pid — and
    must never keep it: writing through it would tag events with the
    parent's pid, collide span ids across processes, and interleave into
    the parent's file.  Idempotent, and a no-op in the parent (which
    configured its tracer explicitly).
    """
    global _GLOBAL
    if _GLOBAL is not None and _GLOBAL.pid == os.getpid():
        return _GLOBAL
    if _GLOBAL is not None:
        # fork inheritance: the file handle belongs to the parent; just
        # drop the reference, never close (or flush into) its stream
        _GLOBAL = None
    run_dir = os.environ.get(OBS_DIR_ENV)
    if not run_dir:
        return NULL_TRACER
    try:
        return configure_tracer(
            Path(run_dir) / f"events-{os.getpid()}.jsonl", role="worker")
    except OSError:
        return NULL_TRACER
