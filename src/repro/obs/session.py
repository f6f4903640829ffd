"""Trace-session lifecycle for a run: directory, env handoff, merge.

A :class:`TraceSession` owns one observability run directory under
``<cache_root>/obs/<run_id>/``.  Starting it configures the parent
tracer to write there and exports ``REPRO_OBS_DIR``/``REPRO_OBS_TRACE``
so that pool workers forked afterwards pick the directory up via
:func:`repro.obs.tracer.ensure_process_tracer`.  Finishing it restores
the environment, closes the parent tracer, merges every per-process
event file into ``trace.json``, and refreshes the ``latest`` pointer
that ``repro-cli trace`` resolves by default.  The run's metrics
snapshot is written afterwards, once, by :meth:`TraceSession.write_metrics`
— a sweep first enriches it with aggregates read from the merged trace.

The run directory lives beside — never inside — the content-addressed
stage directories, and nothing recorded here participates in any
fingerprint, so a traced and an untraced run produce byte-identical
artifacts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .merge import write_merged_trace
from .metrics import get_metrics
from .tracer import (
    OBS_DIR_ENV,
    OBS_PPID_ENV,
    OBS_TRACE_ENV,
    configure_tracer,
    get_tracer,
    reset_tracer,
)

__all__ = ["OBS_DIR_NAME", "TraceSession", "latest_run_dir", "resolve_run_dir"]

#: subdirectory of the cache root holding observability runs
OBS_DIR_NAME = "obs"
LATEST_NAME = "latest"
METRICS_NAME = "metrics.json"


def obs_root(cache_root: Path | str) -> Path:
    return Path(cache_root) / OBS_DIR_NAME


def latest_run_dir(cache_root: Path | str) -> Path | None:
    """The run directory the ``latest`` pointer names, if it exists."""
    pointer = obs_root(cache_root) / LATEST_NAME
    try:
        name = pointer.read_text().strip()
    except OSError:
        return None
    run_dir = obs_root(cache_root) / name
    return run_dir if run_dir.is_dir() else None


def resolve_run_dir(cache_root: Path | str, run: str | None = None) -> Path | None:
    """Resolve a ``repro-cli trace`` argument to a run directory.

    ``None`` or ``"latest"`` follows the pointer; otherwise *run* may be
    a run id under the obs root or a path to a run directory.
    """
    if run is None or run == LATEST_NAME:
        return latest_run_dir(cache_root)
    candidate = obs_root(cache_root) / run
    if candidate.is_dir():
        return candidate
    direct = Path(run)
    return direct if direct.is_dir() else None


class TraceSession:
    """Context manager around one traced run."""

    def __init__(self, cache_root: Path | str, *, label: str = "run") -> None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        self.run_id = f"{stamp}-{label}-{os.getpid()}"
        self.run_dir = obs_root(cache_root) / self.run_id
        self.trace_path: Path | None = None
        self._saved_env: dict[str, str | None] = {}
        self._active = False

    # ------------------------------------------------------------------

    def start(self) -> "TraceSession":
        if self._active:
            return self
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for key, value in ((OBS_DIR_ENV, str(self.run_dir)),
                           (OBS_TRACE_ENV, "1"),
                           (OBS_PPID_ENV, str(os.getpid()))):
            self._saved_env[key] = os.environ.get(key)
            os.environ[key] = value
        configure_tracer(self.run_dir / f"events-{os.getpid()}.jsonl",
                         role="main")
        self._active = True
        return self

    def finish(self) -> Path | None:
        if not self._active:
            return self.trace_path
        self._active = False
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self._saved_env.clear()
        reset_tracer()
        try:
            self.trace_path = write_merged_trace(self.run_dir)
        except OSError:
            self.trace_path = None
        self._point_latest()
        return self.trace_path

    def __enter__(self) -> "TraceSession":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.finish()
        self.write_metrics()

    # ------------------------------------------------------------------

    def tracer(self):
        return get_tracer()

    def write_metrics(self, snapshot: dict | None = None) -> None:
        """Write ``metrics.json``: ``snapshot``, else the registry's."""
        if snapshot is None:
            snapshot = get_metrics().snapshot()
        try:
            (self.run_dir / METRICS_NAME).write_text(
                json.dumps(snapshot, indent=2, default=str))
        except OSError:
            pass

    def _point_latest(self) -> None:
        # The temp name carries the pid: two traced runs finishing at
        # the same moment must not share a scratch file, or one process
        # can rename the other's half-written pointer into place.  The
        # final flip is a single atomic rename either way.
        pointer = self.run_dir.parent / LATEST_NAME
        try:
            tmp = pointer.with_name(f"{pointer.name}.tmp{os.getpid()}")
            tmp.write_text(self.run_id + "\n")
            tmp.replace(pointer)
        except OSError:
            pass
