"""Content-addressed artifact storage for the staged experiment pipeline.

Every pipeline stage (see :mod:`repro.pipeline.stages`) persists its
output under a *fingerprint* — a SHA-256 digest of the stage name plus
its complete parameter set (workload, scale, seed, interval, BIC
threshold, max_k, coverage, warm-up, configuration, predictor, model
version).  Identical parameters always map to the same artifact, so
per-workload stages (BBV profiling, SimPoint selection, checkpoint
creation) are computed once and shared by every configuration that
consumes them — the reuse the paper's own flow gets from materializing
Spike checkpoints on disk.

On-disk layout (one subdirectory per stage)::

    <root>/
        bbv_profile/<fingerprint>.json
        simpoint_selection/<fingerprint>.json
        checkpoints/<fingerprint>/        # a checkpoint-store directory
            manifest.json
            <workload>_iv000123.ckpt
        detailed_sim/<fingerprint>.json
        power_report/<fingerprint>.json
        experiment_result/<fingerprint>.json
        run_manifest.json                 # last sweep's stage accounting

With ``root=None`` the store is memory-only (used by one-shot
``run_experiment`` calls and tests).  Corrupt artifacts — truncated or
garbage JSON, bad checkpoint blobs — are counted, discarded, and
recomputed; they never crash a run.  Every persisted artifact (JSON
files *and* checkpoint directories) is written to a temporary sibling
and atomically renamed into place, so a crash mid-write can never leave
a torn file that later parses as corrupt.

Disk-backed stores are additionally safe for N concurrent, mutually
unaware processes (DESIGN.md §12): every miss is arbitrated through a
lease-based *work claim* (:mod:`repro.pipeline.locking`) so exactly one
process computes a given fingerprint while the others block-with-timeout
and then read the winner's bytes, and every persisted write is bracketed
by a write-ahead intent journal (:mod:`repro.pipeline.journal`) so a
``kill -9`` mid-commit is detectable and repairable by ``repro-cli
recover``.

A store can carry a :class:`~repro.pipeline.faults.FaultInjector`; the
``artifact.read``, ``artifact.write``, ``lease.claim`` and
``stage.<name>`` injection sites live here (see
:mod:`repro.pipeline.faults`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any, Callable, Mapping

from repro.errors import LeaseTimeoutError
from repro.obs.session import OBS_DIR_NAME
from repro.obs.tracer import get_tracer
from repro.pipeline.journal import (
    IntentJournal,
    JOURNAL_DIR_NAME,
    QUARANTINE_DIR_NAME,
)
from repro.pipeline.locking import (
    DecorrelatedJitter,
    LEASE_DIR_NAME,
    WorkClaims,
)

#: bump when the simulation/power models change to invalidate cached
#: artifacts (the old whole-experiment sweep cache used the same knob)
#: v12: CoreStats gained the per-structure commit/retire accounting
#: section, so detailed/power/result artifacts carry new stat keys
MODEL_VERSION = 12

#: bump when the artifact layout or fingerprint recipe changes
ARTIFACT_FORMAT = 1

#: cache-root subdirectories that are infrastructure, not stages
INTERNAL_DIRS = frozenset({OBS_DIR_NAME, JOURNAL_DIR_NAME,
                           QUARANTINE_DIR_NAME, LEASE_DIR_NAME,
                           "fault_state"})

#: how long a lease waiter blocks on a live winner before declaring the
#: wait transient-failed (retried by the scheduler); override with
#: REPRO_LEASE_TIMEOUT
DEFAULT_LEASE_TIMEOUT = 600.0
LEASE_TIMEOUT_ENV = "REPRO_LEASE_TIMEOUT"

_MISSING = object()


def default_lease_timeout() -> float:
    try:
        return float(os.environ.get(LEASE_TIMEOUT_ENV, ""))
    except ValueError:
        return DEFAULT_LEASE_TIMEOUT


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory tmp + ``os.replace``.

    ``os.replace`` is atomic on POSIX, so readers either see the old
    complete file or the new complete one — never a torn write.  Used
    for every JSON the pipeline persists (artifacts, run manifests,
    sweep state).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def atomic_replace_dir(tmp: Path, path: Path) -> None:
    """Atomically promote a fully-written tmp directory to ``path``.

    If another process won the race and ``path`` already exists, the
    tmp tree is discarded — content-addressed artifacts are identical
    by construction, so either copy serves.
    """
    try:
        os.replace(tmp, path)
    except OSError:
        if path.exists():
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            raise


@dataclass
class StageStats:
    """Cache accounting for one pipeline stage."""

    hits: int = 0
    misses: int = 0
    executions: int = 0
    corrupt: int = 0
    seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if not lookups:
            return 1.0
        return self.hits / lookups

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "executions": self.executions, "corrupt": self.corrupt,
                "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageStats":
        data = dict(data)
        data.pop("legacy_hits", None)  # retired; older manifests carry it
        return cls(**data)

    def merge(self, other: "StageStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.executions += other.executions
        self.corrupt += other.corrupt
        self.seconds += other.seconds

    def minus(self, other: "StageStats") -> "StageStats":
        return StageStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            executions=self.executions - other.executions,
            corrupt=self.corrupt - other.corrupt,
            seconds=self.seconds - other.seconds)


def _jsonable(value: Any) -> Any:
    """JSON fallback for fingerprint parameters."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, Path):
        return str(value)
    raise TypeError(
        f"stage parameter of type {type(value).__name__} is not "
        f"fingerprintable: {value!r}")


def canonical_fingerprint(kind: str, params: Mapping) -> str:
    """Stable sha256[:24] content address of ``(kind, params)``.

    The scheme behind every stage fingerprint — exposed at module level
    so tests (and any layer addressing work by content) share one
    canonicalization instead of inventing a second, subtly different
    one.
    """
    canonical = json.dumps(
        {"format": ARTIFACT_FORMAT, "stage": kind,
         "params": dict(params)},
        sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class ArtifactStore:
    """Persists pipeline-stage outputs under content-addressed keys.

    The store is two-layered: live values are memoized in memory (so a
    sweep touches each artifact object once per process) and, when a
    ``root`` directory is given, payloads are persisted on disk so later
    runs — and parallel worker processes — share them.
    """

    def __init__(self, root: Path | str | None = None,
                 faults: Any = None,
                 lease_timeout: float | None = None,
                 lease_poll: float = 0.05) -> None:
        self.root = Path(root) if root is not None else None
        self.faults = faults  # optional repro.pipeline.faults.FaultInjector
        self._memory: dict[tuple[str, str], Any] = {}
        self._stats: dict[str, StageStats] = defaultdict(StageStats)
        # cross-process safety: work claims dedupe concurrent computes of
        # one fingerprint; the journal brackets every persisted write so
        # `repro-cli recover` can prove (or repair) cache integrity after
        # a hard kill.  Both are inert for memory-only stores.
        self.claims = WorkClaims(self.root)
        self.journal = IntentJournal(self.root)
        self.lease_timeout = (lease_timeout if lease_timeout is not None
                              else default_lease_timeout())
        self.lease_poll = lease_poll

    # ------------------------------------------------------------------
    # fingerprints and paths
    # ------------------------------------------------------------------

    def fingerprint(self, stage: str, params: Mapping) -> str:
        """Content address of one stage invocation.

        The digest covers the stage name, the artifact-format version,
        and the canonical JSON form of the full parameter mapping, so it
        is stable across processes and interpreter runs (no reliance on
        ``hash()``) and changes whenever any parameter changes.
        """
        return canonical_fingerprint(stage, params)

    def json_path(self, stage: str, fingerprint: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / stage / f"{fingerprint}.json"

    def dir_path(self, stage: str, fingerprint: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / stage / fingerprint

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, StageStats]:
        return dict(self._stats)

    def stats_snapshot(self) -> dict[str, StageStats]:
        """Deep copy of the counters (for before/after run deltas)."""
        return {stage: StageStats(**stats.to_dict())
                for stage, stats in self._stats.items()}

    def stats_dict(self) -> dict[str, dict]:
        return {stage: stats.to_dict()
                for stage, stats in self._stats.items()}

    def merge_stats(self, stats: Mapping[str, Mapping]) -> None:
        """Fold a worker process's counters into this store's."""
        for stage, data in stats.items():
            self._stats[stage].merge(StageStats.from_dict(data))

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------

    def _write_text(self, stage: str, fingerprint: str, path: Path,
                    text: str) -> None:
        key = f"{stage}/{fingerprint}"
        if self.faults is not None:
            self.faults.inject("artifact.write", key)
        self.journal.claim(stage, fingerprint, path)
        if self.faults is not None and \
                self.faults.tear_commit("artifact.write", key, path):
            # injected kill-9 between rename and commit: the claim above
            # stays open, garbage sits at the final path, and the write
            # itself fails transiently (retried / recovered)
            raise OSError(f"injected torn commit at {key}")
        atomic_write_text(path, text)
        if self.faults is not None:
            self.faults.corrupt_file("artifact.write", key, path)
        self.journal.commit(stage, fingerprint)
        self._observe("write", stage, fingerprint, bytes=len(text))

    def _observe(self, kind: str, stage: str, fingerprint: str,
                 **attrs: Any) -> None:
        """Emit one artifact cache event (hit/miss/write/corrupt)."""
        attrs = {key: value for key, value in attrs.items()
                 if value is not None}
        get_tracer().event(f"artifact.{kind}", stage=stage,
                           fingerprint=fingerprint, **attrs)

    def remember(self, stage: str, fingerprint: str, value: Any) -> None:
        """Memoize a live value without touching disk or counters."""
        self._memory[(stage, fingerprint)] = value

    def forget(self, stage: str, fingerprint: str) -> None:
        """Drop a persisted artifact's memoized value.

        A later lookup reads it from disk again, a hit like a memory
        one.  A memory-only store keeps the value: its memo is the only
        copy.
        """
        if self.root is not None:
            self._memory.pop((stage, fingerprint), None)

    def put_json(self, stage: str, fingerprint: str, value: Any,
                 encode: Callable[[Any], Any] | None = None) -> None:
        """Persist ``value`` (disk, then memory) under its fingerprint.

        A failed write memoizes nothing, as in :meth:`fetch_dir`, so a
        retry computes the value again and writes it.
        """
        path = self.json_path(stage, fingerprint)
        if path is not None:
            payload = encode(value) if encode is not None else value
            self._write_text(stage, fingerprint, path,
                             json.dumps(payload, sort_keys=True))
        self._memory[(stage, fingerprint)] = value

    def peek_json(self, stage: str, fingerprint: str,
                  decode: Callable[[Any], Any] | None = None,
                  label: str | None = None) -> Any:
        """Cache-only lookup: a hit counts, an absence counts nothing.

        Used by schedulers that probe for cached results before fanning
        the real work out to worker processes (which do their own miss
        accounting).
        """
        key = (stage, fingerprint)
        if key in self._memory:
            self._stats[stage].hits += 1
            self._observe("hit", stage, fingerprint, source="memory",
                          label=label)
            return self._memory[key]
        path = self.json_path(stage, fingerprint)
        if path is not None and path.exists():
            # read-site faults fire *outside* the corrupt-guard so an
            # injected transient I/O error propagates (and is retried)
            # rather than being misread as a corrupt artifact
            if self.faults is not None:
                self.faults.inject("artifact.read", f"{stage}/{fingerprint}")
            try:
                payload = json.loads(path.read_text())
                value = decode(payload) if decode is not None else payload
            except Exception:
                self._stats[stage].corrupt += 1
                self._observe("corrupt", stage, fingerprint, label=label)
                path.unlink(missing_ok=True)
                return None
            self._stats[stage].hits += 1
            self._observe("hit", stage, fingerprint, source="disk",
                          label=label)
            self._memory[key] = value
            return value
        return None

    def fetch_json(self, stage: str, fingerprint: str,
                   compute: Callable[[], Any],
                   encode: Callable[[Any], Any] | None = None,
                   decode: Callable[[Any], Any] | None = None,
                   label: str | None = None) -> Any:
        """Load-or-compute one JSON artifact, with full accounting.

        On a disk-backed store the compute path is claim-arbitrated:
        exactly one process executes ``compute`` for a given
        fingerprint; concurrent callers block on the winner's artifact
        (``lease.dedupe``) instead of duplicating the work.
        """
        value = self.peek_json(stage, fingerprint, decode=decode,
                               label=label)
        if value is not None:
            return value
        probe = lambda: self.peek_json(stage, fingerprint, decode=decode,
                                       label=label)
        lease, value = self._arbitrate(stage, fingerprint, probe)
        if lease is None:  # a peer computed it while we waited
            return value
        try:
            value = self._execute(stage, fingerprint, compute, label)
            self.put_json(stage, fingerprint, value, encode=encode)
        finally:
            lease.release()
        return value

    # ------------------------------------------------------------------
    # cross-process work claims
    # ------------------------------------------------------------------

    def _claim_lease(self, stage: str, fingerprint: str):
        path = self.claims.lease_path(stage, fingerprint)
        if path is not None and self.faults is not None:
            self.faults.plant_stale_lease("lease.claim",
                                          f"{stage}/{fingerprint}", path)
        return self.claims.claim(stage, fingerprint)

    def _arbitrate(self, stage: str, fingerprint: str,
                   probe: Callable[[], Any]) -> tuple[Any, Any]:
        """Decide who computes one missing artifact.

        Returns ``(lease, None)`` when this process won the work claim
        and must compute (release the lease when done), or
        ``(None, value)`` when a concurrent process published the
        artifact while we waited.
        """
        while True:
            lease = self._claim_lease(stage, fingerprint)
            if lease is not None:
                # double-check under the lease: a peer may have
                # committed between our miss probe and our claim
                value = probe()
                if value is not None:
                    lease.release()
                    self._observe_dedupe(stage, fingerprint, 0.0)
                    return None, value
                return lease, None
            value = self._wait_for_peer(stage, fingerprint, probe)
            if value is not None:
                return None, value
            # the holder died without publishing: loop and reclaim

    def _wait_for_peer(self, stage: str, fingerprint: str,
                       probe: Callable[[], Any]) -> Any:
        """Block on the claim holder's artifact; ``None`` if it died.

        A live-but-slow holder past ``lease_timeout`` raises
        :class:`~repro.errors.LeaseTimeoutError` (transient — the
        scheduler retries, by which time the artifact usually exists).
        """
        started = monotonic()
        deadline = started + self.lease_timeout
        # decorrelated jitter: when the winner publishes, its N waiters
        # would otherwise all re-probe (and later re-claim) in lockstep
        jitter = DecorrelatedJitter(self.lease_poll)
        while True:
            value = probe()
            if value is not None:
                self._observe_dedupe(stage, fingerprint,
                                     monotonic() - started)
                return value
            if not self.claims.holder_alive(stage, fingerprint):
                # the lease was released (or its owner died): probe once
                # more — a finished winner writes its artifact *before*
                # releasing, so this read is race-free
                value = probe()
                if value is not None:
                    self._observe_dedupe(stage, fingerprint,
                                         monotonic() - started)
                return value
            remaining = deadline - monotonic()
            if remaining <= 0.0:
                raise LeaseTimeoutError(f"{stage}/{fingerprint}",
                                        self.lease_timeout)
            sleep(min(jitter.next_delay(), remaining))

    def _observe_dedupe(self, stage: str, fingerprint: str,
                        waited: float) -> None:
        get_tracer().event("lease.dedupe", stage=stage,
                           fingerprint=fingerprint, seconds=waited)

    def _execute(self, stage: str, fingerprint: str,
                 compute: Callable[[], Any], label: str | None) -> Any:
        """Run one stage compute with miss/execution/timing accounting."""
        self._stats[stage].misses += 1
        self._observe("miss", stage, fingerprint, label=label)
        if self.faults is not None:
            self.faults.inject(f"stage.{stage}", fingerprint)
        started = perf_counter()
        with get_tracer().span(f"stage.{stage}", fingerprint=fingerprint,
                               **({"label": label} if label else {})):
            value = compute()
        stats = self._stats[stage]
        stats.executions += 1
        elapsed = perf_counter() - started
        stats.seconds += elapsed
        return value

    # ------------------------------------------------------------------
    # directory artifacts (the checkpoint store lives here)
    # ------------------------------------------------------------------

    def has(self, stage: str, fingerprint: str) -> bool:
        """Presence check without accounting (scheduler planning)."""
        if (stage, fingerprint) in self._memory:
            return True
        json_path = self.json_path(stage, fingerprint)
        if json_path is not None and json_path.exists():
            return True
        dir_path = self.dir_path(stage, fingerprint)
        return dir_path is not None and dir_path.exists()

    def fetch_dir(self, stage: str, fingerprint: str,
                  compute: Callable[[], Any],
                  save: Callable[[Path, Any], Any],
                  load: Callable[[Path], Any],
                  label: str | None = None) -> Any:
        """Load-or-compute one directory-shaped artifact.

        Used for checkpoint sets, which keep their established
        checkpoint-store format (``manifest.json`` plus one ``.ckpt``
        file per SimPoint) inside the artifact store.  A directory that
        fails to load — truncated blob, garbage manifest — is treated as
        corrupt: it is deleted and the stage recomputes.
        """
        probe = lambda: self._peek_dir(stage, fingerprint, load, label)
        value = probe()
        if value is not None:
            return value
        lease, value = self._arbitrate(stage, fingerprint, probe)
        if lease is None:
            return value
        try:
            value = self._execute(stage, fingerprint, compute, label)
            path = self.dir_path(stage, fingerprint)
            if path is not None:
                # build the directory next to its final home, then
                # promote it atomically — a crash mid-save leaves only a
                # tmp tree (cleaned by `repro-cli recover`)
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
                if tmp.exists():
                    shutil.rmtree(tmp)
                save(tmp, value)
                self.journal.claim(stage, fingerprint, path)
                atomic_replace_dir(tmp, path)
                self.journal.commit(stage, fingerprint)
                self._observe("write", stage, fingerprint, label=label)
            self._memory[(stage, fingerprint)] = value
        finally:
            lease.release()
        return value

    def _peek_dir(self, stage: str, fingerprint: str,
                  load: Callable[[Path], Any],
                  label: str | None) -> Any:
        """Cache-only lookup of a directory artifact (hits count)."""
        key = (stage, fingerprint)
        if key in self._memory:
            self._stats[stage].hits += 1
            self._observe("hit", stage, fingerprint, source="memory",
                          label=label)
            return self._memory[key]
        path = self.dir_path(stage, fingerprint)
        if path is None or not path.exists():
            return None
        try:
            value = load(path)
        except Exception:
            self._stats[stage].corrupt += 1
            self._observe("corrupt", stage, fingerprint, label=label)
            shutil.rmtree(path, ignore_errors=True)
            return None
        self._stats[stage].hits += 1
        self._observe("hit", stage, fingerprint, source="disk",
                      label=label)
        self._memory[key] = value
        return value

    # ------------------------------------------------------------------
    # maintenance (repro-cli cache)
    # ------------------------------------------------------------------

    def artifact_counts(self) -> dict[str, tuple[int, int]]:
        """Per-stage (artifact count, bytes) for what is on disk."""
        counts: dict[str, tuple[int, int]] = {}
        if self.root is None or not self.root.exists():
            return counts
        for stage_dir in sorted(self.root.iterdir()):
            if not stage_dir.is_dir() or stage_dir.name in INTERNAL_DIRS:
                continue  # infrastructure dirs live beside artifacts
            number = 0
            size = 0
            for entry in stage_dir.iterdir():
                number += 1
                if entry.is_dir():
                    size += sum(f.stat().st_size
                                for f in entry.rglob("*") if f.is_file())
                else:
                    size += entry.stat().st_size
            counts[stage_dir.name] = (number, size)
        return counts

    def invalidate_stage(self, stage: str) -> int:
        """Drop one stage's artifacts (memory + disk); returns count."""
        removed = 0
        for key in [key for key in self._memory if key[0] == stage]:
            del self._memory[key]
        if self.root is not None:
            stage_dir = self.root / stage
            if stage_dir.exists():
                removed = sum(1 for _ in stage_dir.iterdir())
                shutil.rmtree(stage_dir)
        return removed

    def clear(self) -> int:
        """Drop every artifact."""
        removed = 0
        stages = {key[0] for key in self._memory}
        if self.root is not None and self.root.exists():
            stages.update(entry.name for entry in self.root.iterdir()
                          if entry.is_dir()
                          and entry.name not in INTERNAL_DIRS)
        for stage in stages:
            removed += self.invalidate_stage(stage)
        if self.root is not None:
            manifest = self.root / "run_manifest.json"
            if manifest.exists():
                manifest.unlink()
            # journal, leases and quarantine describe artifacts that no
            # longer exist; obs trace runs are kept
            self.journal.close()
            for name in (JOURNAL_DIR_NAME, LEASE_DIR_NAME,
                         QUARANTINE_DIR_NAME, "fault_state"):
                shutil.rmtree(self.root / name, ignore_errors=True)
        self._memory.clear()
        return removed
