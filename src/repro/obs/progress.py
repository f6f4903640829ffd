"""Live sweep progress: tail heartbeat events, print per-workload status.

`repro-cli sweep --progress` starts a :class:`ProgressMonitor` in the
parent before the worker pool spins up.  A daemon thread incrementally
tails every per-process ``events-*.jsonl`` file in the observability
run directory (complete lines only — the same torn-tail tolerance as
the merger), folds ``hb`` heartbeats into per-(workload, stream) state,
and periodically prints one status line per active workload with
instantaneous rate and an ETA when the stream advertises its total.
Worker diagnostic logs are drained through the same thread, so the
terminal has exactly one writer.

The ingestion itself lives in :class:`HeartbeatTap`;
:class:`ProgressMonitor` adds the rendering thread and the log drain.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import IO

from .logs import WorkerLogMerger

__all__ = ["HeartbeatTap", "ProgressMonitor"]


class _Stream:
    __slots__ = ("value", "total", "rate", "updated", "units")

    def __init__(self) -> None:
        self.value = 0
        self.total = 0
        self.rate = 0.0
        self.updated = 0.0
        self.units = ""


class HeartbeatTap:
    """Incremental reader of ``hb`` events under one obs run directory.

    Stateful and cheap to poll: each :meth:`poll` reads only the bytes
    appended since the last one (complete lines only, tolerating a torn
    tail from a crashed writer) and folds heartbeats into
    per-(workload, stream) state.  Thread-safe — :meth:`ProgressMonitor.stop`
    drains once more after a bounded ``join``, which a still-running
    monitor thread can outlive, so two polls may overlap.
    """

    def __init__(self, run_dir: Path | str) -> None:
        self.run_dir = Path(run_dir)
        self._offsets: dict[Path, int] = {}
        self._streams: dict[tuple, _Stream] = {}
        self._lock = threading.Lock()

    def poll(self) -> bool:
        """Ingest newly appended heartbeats; ``True`` if anything changed."""
        changed = False
        try:
            files = sorted(self.run_dir.glob("events-*.jsonl"))
        except OSError:
            return False
        now = time.monotonic()
        for path in files:
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            complete, _, remainder = chunk.rpartition(b"\n")
            self._offsets[path] = offset + len(chunk) - len(remainder)
            if not complete:
                continue
            for raw in complete.splitlines():
                try:
                    event = json.loads(raw)
                except (json.JSONDecodeError, ValueError):
                    continue
                if not isinstance(event, dict) or event.get("type") != "hb":
                    continue
                attrs = event.get("attrs") or {}
                key = (attrs.get("workload", "?"), event.get("name", "?"))
                with self._lock:
                    state = self._streams.setdefault(key, _Stream())
                    state.value = attrs.get("value", state.value)
                    state.total = attrs.get("total", state.total) \
                        or state.total
                    state.rate = attrs.get("rate", state.rate)
                    state.units = attrs.get("units", state.units)
                    state.updated = now
                changed = True
        return changed

    def streams(self) -> list[tuple[tuple, _Stream]]:
        """(key, state) pairs, most recently updated first."""
        with self._lock:
            return sorted(self._streams.items(),
                          key=lambda item: -item[1].updated)


class ProgressMonitor:
    """Tails heartbeats under *run_dir* and prints live progress lines."""

    def __init__(self, run_dir: Path | str, *,
                 stream: IO[str] | None = None,
                 interval: float = 1.0,
                 merge_logs: bool = True) -> None:
        self.run_dir = Path(run_dir)
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.tap = HeartbeatTap(self.run_dir)
        self._logs = WorkerLogMerger(self.run_dir) if merge_logs else None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_render = ""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ProgressMonitor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-progress", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        self.poll()  # final drain so the last heartbeats are shown

    def __enter__(self) -> "ProgressMonitor":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.poll()
            except Exception:  # a progress glitch must not kill the sweep
                pass

    # ------------------------------------------------------------------
    # one tick
    # ------------------------------------------------------------------

    def poll(self) -> None:
        """Drain logs + heartbeats once and render any changes."""
        lines: list[str] = []
        if self._logs is not None:
            lines.extend(self._logs.drain())
        changed = self.tap.poll()
        if changed:
            rendered = self.render()
            if rendered and rendered != self._last_render:
                self._last_render = rendered
                lines.append(rendered)
        if lines:
            try:
                self.stream.write("\n".join(lines) + "\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass

    def render(self) -> str:
        """One status line per (workload, stream), most recent first."""
        rows = []
        for (workload, name), state in self.tap.streams():
            parts = [f"{workload}: {name} {state.value:,} {state.units}"]
            if state.total:
                fraction = min(state.value / state.total, 1.0)
                parts.append(f"{fraction * 100.0:5.1f}%")
                if state.rate > 0 and state.value < state.total:
                    eta = (state.total - state.value) / state.rate
                    parts.append(f"eta {eta:.1f}s")
            if state.rate > 0:
                parts.append(f"({state.rate:,.0f}/s)")
            rows.append("  " + "  ".join(parts))
        return "\n".join(rows)
