"""Cross-process locks and lease-based work claims for the cache.

The artifact store was built for one process tree: content-addressed
writes are atomic, but nothing stops two mutually-unaware *processes*
from computing the same artifact twice, interleaving a read-modify-write
of the sweep state, or racing the ``obs/latest`` pointer.  This module
is the concurrency substrate that makes the whole cache safe for N
concurrent clients (DESIGN.md §12):

:class:`FileLock`
    A blocking advisory ``fcntl`` lock around any shared mutable file
    (sweep state, run manifest, ``obs/latest``).  fcntl locks are
    released by the kernel when the holder dies, so a crashed process
    can never wedge the cache; a wait of at least one poll is recorded
    as a ``lock.wait`` trace event so contention is visible.  Where
    ``fcntl`` is unavailable the lock degrades to the lease protocol
    below (create-exclusive + liveness reclamation).

:class:`WorkClaims` / :class:`Lease`
    Lease-based *work claims* keyed by ``(stage, fingerprint)``: the
    first process to claim a missing artifact computes it; every other
    process blocks-with-timeout and then reads the winner's bytes
    (counted in ``lease.dedupe``).  A lease names its owner by
    ``pid`` + ``boot id``; a lease whose owner is provably dead — the
    pid is gone, or the boot id differs so the pid cannot be the same
    process — is *stale* and is reclaimed by the next claimant
    (``lease.steals``).  Liveness beats TTLs: a slow-but-alive holder
    keeps its lease, while a kill -9'd one loses it immediately.

Lock ordering is the stage DAG: a process holding the lease for a
downstream stage (``experiment_result``) acquires upstream-stage leases
(``detailed_sim``, ``power_report``) while computing, never the
reverse, so claim cycles cannot form.  The sweep-state and manifest
file locks are leaves — nothing is acquired while holding them.
"""

from __future__ import annotations

import errno
import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Callable

try:  # POSIX; the lease fallback covers everything else
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.errors import LockTimeoutError
from repro.obs.tracer import get_tracer

__all__ = ["DecorrelatedJitter", "FileLock", "Lease", "WorkClaims",
           "boot_id", "held_leases", "owner_token", "process_alive",
           "release_held", "LEASE_DIR_NAME"]

#: subdirectory of the cache root holding work-claim leases
LEASE_DIR_NAME = "leases"

_BOOT_ID_PATH = "/proc/sys/kernel/random/boot_id"
_boot_id_cache: str | None = None


def boot_id() -> str:
    """This boot's identity, so a pid is only trusted on the same boot.

    Pids recycle across reboots (and across containers); pairing the
    pid with the kernel boot id makes "is the lease owner alive?" a
    sound question.  Falls back to a constant when ``/proc`` is
    unavailable — liveness probes then degrade to pid-only.
    """
    global _boot_id_cache
    if _boot_id_cache is None:
        try:
            _boot_id_cache = Path(_BOOT_ID_PATH).read_text().strip()
        except OSError:
            _boot_id_cache = "no-boot-id"
    return _boot_id_cache


def owner_token() -> dict:
    """Identity of the current process, as recorded in locks and leases."""
    return {"pid": os.getpid(), "boot_id": boot_id(),
            "acquired": time.time()}


def process_alive(pid: int, owner_boot: str | None) -> bool:
    """Whether ``pid`` from boot ``owner_boot`` is still running here.

    A different boot id means the recorded pid cannot name the same
    process — the owner is dead by construction.  On the same boot the
    kernel is asked directly (signal 0); ``EPERM`` means the process
    exists but belongs to someone else, which still counts as alive.
    A zombie counts as dead: a SIGKILLed pool worker whose reaper died
    with it lingers in Z state indefinitely, and it can never finish
    the work its leases and journals describe.
    """
    if owner_boot is not None and owner_boot != boot_id():
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as exc:
        return exc.errno == errno.EPERM
    return not _is_zombie(pid)


def _is_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False  # no /proc: the kill probe's answer stands
    # field 3, after the parenthesized (and space-containing) comm
    _, _, tail = stat.rpartition(") ")
    return tail.startswith("Z")


def _owner_alive(owner: dict) -> bool:
    try:
        return process_alive(int(owner["pid"]), owner.get("boot_id"))
    except (KeyError, TypeError, ValueError):
        return False  # malformed owner record: treat as dead


# ----------------------------------------------------------------------
# in-process registry of held leases
# ----------------------------------------------------------------------
#
# Leases die with their owner *eventually* (the next claimant steals a
# dead owner's lease), but an interrupted sweep wants to exit clean —
# no lease files left for peers to probe and steal.  Every Lease
# registers itself here on creation and deregisters on release; the
# signal path calls release_held() to drop whatever this process still
# holds.  Keyed by pid so a forked worker, which inherits the parent's
# registry contents, can neither release nor double-count the parent's
# leases.

_held_lock = threading.Lock()
_held: dict[int, list["Lease"]] = {}


def _register_held(lease: "Lease") -> None:
    with _held_lock:
        _held.setdefault(os.getpid(), []).append(lease)


def _unregister_held(lease: "Lease") -> None:
    with _held_lock:
        entries = _held.get(os.getpid())
        if entries is not None:
            try:
                entries.remove(lease)
            except ValueError:
                pass


def held_leases() -> list["Lease"]:
    """The leases this process currently holds (registration order)."""
    with _held_lock:
        return list(_held.get(os.getpid(), ()))


def release_held() -> int:
    """Release every lease this process still holds; returns the count.

    Used by the interrupt path: after this, no peer can block on (or
    have to steal) a claim the dying sweep will never honour.
    """
    released = 0
    for lease in held_leases():
        lease.release()
        released += 1
    return released


class FileLock:
    """Advisory cross-process lock on ``path`` (fcntl, stale-proof).

    The lock file persists between uses; holding it means holding an
    exclusive ``flock`` on its descriptor, which the kernel releases if
    the holder dies mid-critical-section.  The holder's pid/boot-id are
    written into the file purely for diagnostics (``repro-cli recover
    --check`` reads them).
    """

    def __init__(self, path: Path | str, timeout: float = 30.0,
                 poll: float = 0.02,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self._clock = clock
        self._sleep = sleep
        self._fd: int | None = None
        self._fallback: Lease | None = None

    # ------------------------------------------------------------------

    def acquire(self) -> "FileLock":
        if self._fd is not None or self._fallback is not None:
            raise RuntimeError(f"lock {self.path} already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        started = self._clock()
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            self._fallback = self._acquire_fallback(started)
        else:
            self._acquire_fcntl(started)
        waited = self._clock() - started
        if waited >= self.poll:
            get_tracer().event("lock.wait", path=self.path.name,
                               seconds=waited)
        return self

    def _acquire_fcntl(self, started: float) -> None:
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if self._clock() - started >= self.timeout:
                    os.close(fd)
                    raise LockTimeoutError(str(self.path), self.timeout)
                self._sleep(self.poll)
        try:  # owner metadata is diagnostic only; failure is harmless
            os.ftruncate(fd, 0)
            os.write(fd, json.dumps(owner_token()).encode())
        except OSError:
            pass
        self._fd = fd

    def _acquire_fallback(self, started: float) -> "Lease":
        claims = WorkClaims(self.path.parent, lease_dir="")
        while True:
            lease = claims.try_claim_path(self.path.with_suffix(
                self.path.suffix + ".lease"))
            if lease is not None:
                return lease
            if self._clock() - started >= self.timeout:
                raise LockTimeoutError(str(self.path), self.timeout)
            self._sleep(self.poll)

    def release(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        if self._fallback is not None:  # pragma: no cover - non-POSIX
            lease, self._fallback = self._fallback, None
            lease.release()

    @property
    def held(self) -> bool:
        return self._fd is not None or self._fallback is not None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()


class Lease:
    """One held work claim: a create-exclusive file naming its owner."""

    def __init__(self, path: Path, owner: dict) -> None:
        self.path = path
        self.owner = owner
        _register_held(self)

    def release(self) -> None:
        """Drop the claim (only if this process still owns it)."""
        _unregister_held(self)
        try:
            owner = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if owner.get("pid") == self.owner.get("pid") and \
                owner.get("boot_id") == self.owner.get("boot_id"):
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class _InProcessLease:
    """Claim that always wins: the memory-only store has no peers."""

    path = None
    owner: dict = {}

    def release(self) -> None:
        pass


class WorkClaims:
    """Lease registry under ``<root>/leases/<stage>/<fingerprint>.lease``."""

    def __init__(self, root: Path | str | None,
                 lease_dir: str = LEASE_DIR_NAME) -> None:
        self.root = Path(root) if root is not None else None
        self._dir = (self.root / lease_dir if lease_dir else self.root) \
            if self.root is not None else None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def lease_path(self, stage: str, fingerprint: str) -> Path | None:
        if self._dir is None:
            return None
        return self._dir / stage / f"{fingerprint}.lease"

    # ------------------------------------------------------------------
    # claiming
    # ------------------------------------------------------------------

    def claim(self, stage: str, fingerprint: str):
        """Try to claim (stage, fingerprint); ``None`` when a live peer
        already holds it.

        A stale claim — held by a provably dead process — is reclaimed
        on the spot (``lease.steals``); the winner of the steal race is
        decided by a short ``flock`` critical section so two reclaimers
        cannot both think they won.
        """
        path = self.lease_path(stage, fingerprint)
        if path is None:
            return _InProcessLease()
        return self.try_claim_path(path)

    def try_claim_path(self, path: Path) -> Lease | None:
        path.parent.mkdir(parents=True, exist_ok=True)
        owner = owner_token()
        lease = self._create_exclusive(path, owner)
        if lease is not None:
            return lease
        holder = self.holder(path)
        if holder is not None and _owner_alive(holder):
            return None
        # stale (dead owner or garbage): reclaim under a steal lock so
        # exactly one contender replaces it
        steal = FileLock(path.with_suffix(path.suffix + ".steal"),
                         timeout=5.0)
        try:
            with steal:
                holder = self.holder(path)
                if holder is not None and _owner_alive(holder):
                    return None  # lost the steal race to a live claimant
                if path.exists():
                    path.unlink(missing_ok=True)
                    get_tracer().event("lease.steal", path=path.name,
                                       dead_owner=(holder or {}).get("pid"))
                return self._create_exclusive(path, owner)
        except LockTimeoutError:
            return None

    @staticmethod
    def _create_exclusive(path: Path, owner: dict) -> Lease | None:
        # write-then-link: the lease appears atomically *with* its owner
        # record.  A plain open("x") creates the file before the JSON is
        # flushed, so a peer probing in that window would read an empty
        # lease, mistake the live claim for garbage, and steal it.
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(owner), encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return None
        except OSError:  # no hard links on this fs: non-atomic fallback
            try:
                with open(path, "x", encoding="utf-8") as handle:
                    handle.write(json.dumps(owner))
            except FileExistsError:
                return None
        finally:
            tmp.unlink(missing_ok=True)
        return Lease(path, owner)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @staticmethod
    def holder(path: Path) -> dict | None:
        """The recorded owner of a lease file, or ``None``."""
        try:
            owner = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return owner if isinstance(owner, dict) else None

    def holder_alive(self, stage: str, fingerprint: str) -> bool:
        """Whether the current holder of (stage, fingerprint) is alive.

        ``False`` also covers "no lease at all" — callers use this to
        decide whether waiting on the artifact still makes sense.
        """
        path = self.lease_path(stage, fingerprint)
        if path is None or not path.exists():
            return False
        holder = self.holder(path)
        return holder is not None and _owner_alive(holder)

    def iter_leases(self):
        """Yield ``(path, owner-or-None)`` for every lease on disk."""
        if self._dir is None or not self._dir.exists():
            return
        for path in sorted(self._dir.rglob("*.lease")):
            yield path, self.holder(path)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def release_dead(self) -> int:
        """Unlink every lease whose owner is provably dead; returns count."""
        released = 0
        for path, owner in list(self.iter_leases()):
            if owner is None or not _owner_alive(owner):
                path.unlink(missing_ok=True)
                released += 1
        if self._dir is not None and self._dir.exists():
            # dead claimants' lease scratch (see _create_exclusive) is
            # invisible to *.lease globs; sweep it here so crashes do
            # not accumulate garbage in the lease tree
            for tmp in self._dir.rglob("*.lease.tmp*"):
                try:
                    pid = int(tmp.name.rsplit(".tmp", 1)[1])
                except (IndexError, ValueError):
                    pid = -1
                if not process_alive(pid, None):
                    tmp.unlink(missing_ok=True)
        return released


class DecorrelatedJitter:
    """Decorrelated-jitter poll delays: ``uniform(base, 3 * prev)``, capped.

    N waiters released by one event (a lease holder publishing, a lock
    holder exiting) all wake on the same fixed-interval grid and hit
    the shared file together; randomizing each waiter's next delay
    against its *previous* one spreads the herd while keeping the mean
    delay near the base.  The default cap of ``8 * base`` bounds how
    far a waiter can drift from the condition it is watching.
    """

    def __init__(self, base: float, cap: float | None = None,
                 rng: random.Random | None = None) -> None:
        if base < 0.0:
            raise ValueError(f"jitter base must be >= 0, got {base:g}")
        self.base = base
        # base 0 degenerates to busy-polling with zero delays, which is
        # what callers passing poll=0 (tests with injected sleeps) want
        self.cap = cap if cap is not None else base * 8.0
        self._rng = rng if rng is not None else random.Random()
        self._prev = base

    def next_delay(self) -> float:
        self._prev = min(self.cap,
                         self._rng.uniform(self.base, self._prev * 3.0))
        return self._prev
