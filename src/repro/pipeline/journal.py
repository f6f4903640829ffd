"""Write-ahead intent journal and crash recovery for the cache.

Every artifact the store persists is bracketed by journal records —
``claim`` before the bytes move, ``commit`` after the atomic rename
lands (``abort`` if the compute raised) — appended to a per-process
JSONL file under ``<cache>/journal/``.  The journal never participates
in fingerprints or results; it exists so that after a ``kill -9`` the
cache's trustworthiness can be *proven* rather than assumed:

* a ``claim`` with no ``commit`` from a **dead** process marks a
  possibly-torn artifact — :func:`recover_cache` moves it to
  ``<cache>/quarantine/`` (recomputation is always safe: stages are
  deterministic and content-addressed);
* leases whose owners died are released, stray ``*.tmp<pid>`` build
  directories from dead pids are deleted, and a sweep state left
  ``running`` by a dead owner is repaired so ``--resume`` starts from
  provably-consistent ground;
* journal files of dead processes are deleted once processed, so the
  journal directory only ever describes live work.

Journal lines may themselves be torn by the kill; the reader ignores a
trailing partial line (same tolerance as the trace merger).  Records of
*live* processes are never acted on — in-flight work is not a fault.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from repro.pipeline.locking import (
    FileLock,
    WorkClaims,
    boot_id,
    process_alive,
)

__all__ = ["IntentJournal", "JournalRecord", "RecoveryReport",
           "recover_cache", "read_journal", "journal_files",
           "JOURNAL_DIR_NAME", "QUARANTINE_DIR_NAME"]

#: cache-root subdirectories owned by this layer
JOURNAL_DIR_NAME = "journal"
QUARANTINE_DIR_NAME = "quarantine"

#: journal ops, in lifecycle order
CLAIM, COMMIT, ABORT = "claim", "commit", "abort"


@dataclass(frozen=True)
class JournalRecord:
    """One journaled transition of one artifact."""

    op: str             # claim | commit | abort
    stage: str
    fingerprint: str
    path: str = ""      # final artifact path (claims only)
    pid: int = 0
    ts: float = 0.0

    def to_dict(self) -> dict:
        return {"op": self.op, "stage": self.stage,
                "fingerprint": self.fingerprint, "path": self.path,
                "pid": self.pid, "ts": self.ts}

    @classmethod
    def from_dict(cls, data: dict) -> "JournalRecord":
        return cls(op=data["op"], stage=data["stage"],
                   fingerprint=data["fingerprint"],
                   path=data.get("path", ""), pid=data.get("pid", 0),
                   ts=data.get("ts", 0.0))


def _file_owner(path: Path) -> tuple[int, str] | None:
    """(pid, boot id) encoded in a journal file name, or ``None``."""
    parts = path.stem.split("-")  # intents-<boot8>-<pid>
    if len(parts) != 3 or parts[0] != "intents":
        return None
    try:
        return int(parts[2]), parts[1]
    except ValueError:
        return None


def journal_files(cache_root: Path | str) -> list[Path]:
    directory = Path(cache_root) / JOURNAL_DIR_NAME
    if not directory.is_dir():
        return []
    return sorted(directory.glob("intents-*.jsonl"))


def read_journal(path: Path) -> list[JournalRecord]:
    """Parse one journal file, ignoring a torn trailing line."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    records: list[JournalRecord] = []
    lines = text.split("\n")
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(JournalRecord.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            if index == len(lines) - 1:
                continue  # torn final line: the kill landed mid-append
            records.append(JournalRecord(
                op="garbage", stage="", fingerprint=""))
    return records


class IntentJournal:
    """Per-process append-only intent log under ``<root>/journal/``.

    One file per (boot id, pid); a store that crosses a ``fork`` lazily
    reopens under the child's pid, so worker processes never interleave
    appends into the parent's file.  ``root=None`` disables journaling
    (memory-only stores have nothing to recover).
    """

    def __init__(self, root: Path | str | None) -> None:
        self.root = Path(root) if root is not None else None
        self._handle: IO[str] | None = None
        self._pid: int | None = None
        # intents this process claimed but has not yet settled, so an
        # interrupted run can abort them explicitly instead of leaving
        # recover_cache to prove the owner dead first
        self._open: dict[tuple[str, str], None] = {}
        self._open_pid: int | None = None

    @property
    def directory(self) -> Path | None:
        if self.root is None:
            return None
        return self.root / JOURNAL_DIR_NAME

    def path_for(self, pid: int) -> Path:
        assert self.directory is not None
        return self.directory / f"intents-{boot_id()[:8]}-{pid}.jsonl"

    # ------------------------------------------------------------------

    def _writer(self) -> IO[str] | None:
        if self.root is None:
            return None
        pid = os.getpid()
        if self._handle is None or self._pid != pid:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            directory = self.directory
            directory.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path_for(pid), "a", encoding="utf-8")
            self._pid = pid
        return self._handle

    def _append(self, op: str, stage: str, fingerprint: str,
                path: Path | str | None = None) -> None:
        handle = self._writer()
        if handle is None:
            return
        record = JournalRecord(op=op, stage=stage, fingerprint=fingerprint,
                               path=str(path) if path is not None else "",
                               pid=os.getpid(), ts=time.time())
        try:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            handle.flush()
        except OSError:
            pass  # a failing journal must never fail the write itself

    def _track(self, op: str, stage: str, fingerprint: str) -> None:
        # a forked child inherits the parent's open set but must not
        # abort (or re-settle) the parent's intents: reset on pid change
        pid = os.getpid()
        if self._open_pid != pid:
            self._open = {}
            self._open_pid = pid
        key = (stage, fingerprint)
        if op == CLAIM:
            self._open[key] = None
        else:
            self._open.pop(key, None)

    def claim(self, stage: str, fingerprint: str,
              path: Path | str) -> None:
        self._track(CLAIM, stage, fingerprint)
        self._append(CLAIM, stage, fingerprint, path)

    def commit(self, stage: str, fingerprint: str) -> None:
        self._track(COMMIT, stage, fingerprint)
        self._append(COMMIT, stage, fingerprint)

    def abort(self, stage: str, fingerprint: str) -> None:
        self._track(ABORT, stage, fingerprint)
        self._append(ABORT, stage, fingerprint)

    def abort_open(self) -> int:
        """Abort every intent this process claimed but never settled.

        The interrupt path's journal half: after this, the journal
        proves the interrupted run left nothing in flight, so a later
        ``recover_cache`` has no claims to quarantine (artifact writes
        are atomic — an aborted claim's final path either holds a
        complete artifact or nothing).  Returns the number aborted.
        """
        if self._open_pid != os.getpid():
            return 0
        aborted = 0
        for stage, fingerprint in list(self._open):
            self.abort(stage, fingerprint)
            aborted += 1
        return aborted

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
            self._pid = None


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one ``repro-cli recover`` pass found and repaired."""

    journals_scanned: int = 0
    journals_removed: int = 0
    open_intents: int = 0           # claims w/o commit from dead owners
    quarantined: list[str] = field(default_factory=list)
    leases_released: int = 0
    tmp_removed: int = 0
    state_repaired: bool = False
    pointer_repaired: bool = False

    @property
    def clean(self) -> bool:
        """Whether the cache needed no repairs at all."""
        return not (self.journals_removed or self.quarantined
                    or self.leases_released or self.tmp_removed
                    or self.state_repaired or self.pointer_repaired)

    def to_dict(self) -> dict:
        return {"journals_scanned": self.journals_scanned,
                "journals_removed": self.journals_removed,
                "open_intents": self.open_intents,
                "quarantined": list(self.quarantined),
                "leases_released": self.leases_released,
                "tmp_removed": self.tmp_removed,
                "state_repaired": self.state_repaired,
                "pointer_repaired": self.pointer_repaired}

    def format(self) -> str:
        if self.clean:
            return ("cache clean: no torn artifacts, dead leases or "
                    "interrupted state found")
        lines = [f"recovered cache "
                 f"({self.journals_scanned} journal files scanned):"]
        if self.quarantined:
            lines.append(f"  quarantined {len(self.quarantined)} "
                         f"uncommitted artifact(s):")
            lines.extend(f"    {name}" for name in self.quarantined)
        if self.leases_released:
            lines.append(f"  released {self.leases_released} dead lease(s)")
        if self.tmp_removed:
            lines.append(f"  removed {self.tmp_removed} stray tmp "
                         f"file(s)/dir(s) from dead processes")
        if self.journals_removed:
            lines.append(f"  retired {self.journals_removed} dead-process "
                         f"journal file(s)")
        if self.state_repaired:
            lines.append("  repaired sweep state (marked interrupted)")
        if self.pointer_repaired:
            lines.append("  repaired dangling obs/latest pointer")
        return "\n".join(lines)


def open_intents(records: list[JournalRecord]) -> list[JournalRecord]:
    """Claims never followed by a commit or abort, in claim order."""
    settled: set[tuple[str, str]] = set()
    for record in records:
        if record.op in (COMMIT, ABORT):
            settled.add((record.stage, record.fingerprint))
    pending: dict[tuple[str, str], JournalRecord] = {}
    for record in records:
        key = (record.stage, record.fingerprint)
        if record.op == CLAIM and key not in settled:
            pending[key] = record
    return list(pending.values())


def _iter_stray_tmp(cache_root: Path) -> Iterator[Path]:
    """Every ``*.tmp<pid>`` build leftover in the stage directories."""
    internal = {JOURNAL_DIR_NAME, QUARANTINE_DIR_NAME, "obs", "leases",
                "fault_state"}
    for stage_dir in cache_root.iterdir():
        if not stage_dir.is_dir() or stage_dir.name in internal:
            continue
        yield from stage_dir.glob("*.tmp*")
    yield from cache_root.glob("*.tmp*")


def _tmp_pid(path: Path) -> int | None:
    suffix = path.name.rsplit(".tmp", 1)
    if len(suffix) != 2:
        return None
    try:
        return int(suffix[1])
    except ValueError:
        return None


def _quarantine(cache_root: Path, artifact: Path,
                report: RecoveryReport) -> None:
    target_dir = cache_root / QUARANTINE_DIR_NAME / artifact.parent.name
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / f"{artifact.name}.{int(time.time())}"
    try:
        os.replace(artifact, target)
    except OSError:
        if artifact.is_dir():
            shutil.move(str(artifact), str(target))
        else:
            return
    report.quarantined.append(f"{artifact.parent.name}/{artifact.name}")


def _repair_sweep_state(cache_root: Path, report: RecoveryReport) -> None:
    """Mark a dead owner's ``running`` sweep state as interrupted.

    An unparseable state file (torn by a pre-atomic-write crash, or
    plain corruption) is quarantined — ``--resume`` then starts fresh
    from the artifact store, which is exactly what it can trust.
    """
    state_path = cache_root / "sweep_state.json"
    if not state_path.exists():
        return
    try:
        state = json.loads(state_path.read_text())
        if not isinstance(state, dict):
            raise ValueError("sweep state is not an object")
    except (OSError, ValueError):
        _quarantine(cache_root, state_path, report)
        report.state_repaired = True
        return
    owner = state.get("owner") or {}
    alive = process_alive(int(owner.get("pid", 0) or 0),
                          owner.get("boot_id"))
    if state.get("status") == "running" and not alive:
        state["status"] = "interrupted"
        from repro.pipeline.artifacts import atomic_write_text

        with FileLock(state_path.with_name(state_path.name + ".lock")):
            atomic_write_text(state_path, json.dumps(state, indent=2,
                                                     sort_keys=True))
        report.state_repaired = True


def _repair_latest_pointer(cache_root: Path,
                           report: RecoveryReport) -> None:
    from repro.obs.session import LATEST_NAME, OBS_DIR_NAME

    pointer = cache_root / OBS_DIR_NAME / LATEST_NAME
    if not pointer.exists():
        return
    try:
        name = pointer.read_text().strip()
    except OSError:
        name = ""
    if not name or not (pointer.parent / name).is_dir():
        pointer.unlink(missing_ok=True)
        report.pointer_repaired = True


def recover_cache(cache_root: Path | str) -> RecoveryReport:
    """Repair a cache after crashes so ``--resume`` is trustworthy.

    Safe to run any time, including while other processes are working:
    only state owned by provably dead processes is touched.  Returns a
    :class:`RecoveryReport`; ``report.clean`` means nothing needed
    fixing.
    """
    cache_root = Path(cache_root)
    report = RecoveryReport()
    if not cache_root.is_dir():
        return report

    for path in journal_files(cache_root):
        report.journals_scanned += 1
        owner = _file_owner(path)
        if owner is not None and process_alive(owner[0], None
                                               if owner[1] == boot_id()[:8]
                                               else owner[1]):
            continue  # live process: its intents are in-flight work
        records = read_journal(path)
        for intent in open_intents(records):
            report.open_intents += 1
            if not intent.path:
                continue
            artifact = Path(intent.path)
            if artifact.exists():
                _quarantine(cache_root, artifact, report)
        path.unlink(missing_ok=True)
        report.journals_removed += 1

    report.leases_released = WorkClaims(cache_root).release_dead()

    for tmp in list(_iter_stray_tmp(cache_root)):
        pid = _tmp_pid(tmp)
        if pid is None or process_alive(pid, None):
            continue  # unknown scheme or live writer: leave it alone
        if tmp.is_dir():
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            tmp.unlink(missing_ok=True)
        report.tmp_removed += 1

    _repair_sweep_state(cache_root, report)
    _repair_latest_pointer(cache_root, report)
    return report
