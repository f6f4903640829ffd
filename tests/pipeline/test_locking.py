"""Tests for cross-process file locks and lease-based work claims."""

import json
import multiprocessing
import os
import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LeaseTimeoutError, LockTimeoutError
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.locking import (
    DecorrelatedJitter,
    FileLock,
    WorkClaims,
    _InProcessLease,
    boot_id,
    owner_token,
    process_alive,
)


def _dead_pid():
    """A real pid that is provably dead (a just-exited child)."""
    proc = multiprocessing.Process(target=lambda: None)
    proc.start()
    proc.join()
    return proc.pid


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------

def test_own_process_is_alive():
    assert process_alive(os.getpid(), boot_id())
    assert process_alive(os.getpid(), None)  # pid-only degradation


def test_boot_mismatch_means_dead_regardless_of_pid():
    assert not process_alive(os.getpid(), "some-other-boot")


def test_dead_child_is_dead():
    assert not process_alive(_dead_pid(), boot_id())


def test_nonsense_pids_are_dead():
    assert not process_alive(0, boot_id())
    assert not process_alive(-1, boot_id())


def test_owner_token_names_this_process():
    token = owner_token()
    assert token["pid"] == os.getpid()
    assert token["boot_id"] == boot_id()


# ----------------------------------------------------------------------
# FileLock
# ----------------------------------------------------------------------

def test_lock_is_exclusive_between_descriptors(tmp_path):
    path = tmp_path / "state.lock"
    with FileLock(path):
        contender = FileLock(path, timeout=0.1, poll=0.01)
        with pytest.raises(LockTimeoutError):
            contender.acquire()


def test_lock_released_can_be_reacquired(tmp_path):
    path = tmp_path / "state.lock"
    lock = FileLock(path)
    lock.acquire()
    assert lock.held
    lock.release()
    assert not lock.held
    with FileLock(path, timeout=0.5):
        pass  # immediate reacquire: the release actually released


def test_lock_double_acquire_rejected(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    with lock:
        with pytest.raises(RuntimeError):
            lock.acquire()
    lock.release()  # idempotent after context exit


def test_lock_records_owner_diagnostics(tmp_path):
    path = tmp_path / "x.lock"
    with FileLock(path):
        owner = json.loads(path.read_text())
        assert owner["pid"] == os.getpid()


# ----------------------------------------------------------------------
# WorkClaims / leases
# ----------------------------------------------------------------------

def test_first_claim_wins_second_loses(tmp_path):
    claims = WorkClaims(tmp_path)
    lease = claims.claim("stage", "fp1")
    assert lease is not None
    assert claims.claim("stage", "fp1") is None  # live holder: refused
    assert claims.holder_alive("stage", "fp1")
    lease.release()
    assert not claims.holder_alive("stage", "fp1")
    assert claims.claim("stage", "fp1") is not None  # reclaimable


def test_memory_only_claims_always_win():
    claims = WorkClaims(None)
    assert isinstance(claims.claim("stage", "fp"), _InProcessLease)
    assert not claims.holder_alive("stage", "fp")


def test_stale_lease_of_dead_owner_is_stolen(tmp_path):
    claims = WorkClaims(tmp_path)
    path = claims.lease_path("stage", "fp")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"pid": _dead_pid(), "boot_id": boot_id(),
                                "acquired": 0.0}))
    lease = claims.claim("stage", "fp")
    assert lease is not None  # reclaimed on the spot
    assert json.loads(path.read_text())["pid"] == os.getpid()


def test_garbage_lease_is_stolen(tmp_path):
    claims = WorkClaims(tmp_path)
    path = claims.lease_path("stage", "fp")
    path.parent.mkdir(parents=True)
    path.write_text("{torn")
    assert claims.claim("stage", "fp") is not None


def test_release_respects_ownership(tmp_path):
    claims = WorkClaims(tmp_path)
    lease = claims.claim("stage", "fp")
    # another process steals the file out from under us (simulated)
    lease.path.write_text(json.dumps({"pid": 1, "boot_id": "other"}))
    lease.release()
    assert lease.path.exists()  # not ours any more: left alone


def test_release_dead_sweeps_only_dead_leases(tmp_path):
    claims = WorkClaims(tmp_path)
    live = claims.claim("stage", "live")
    dead_path = claims.lease_path("stage", "dead")
    dead_path.write_text(json.dumps({"pid": _dead_pid(),
                                     "boot_id": boot_id()}))
    assert claims.release_dead() == 1
    assert not dead_path.exists()
    assert live.path.exists()
    live.release()


def test_iter_leases_reports_owners(tmp_path):
    claims = WorkClaims(tmp_path)
    claims.claim("stage", "fp")
    ((path, owner),) = list(claims.iter_leases())
    assert path.name == "fp.lease"
    assert owner["pid"] == os.getpid()


# ----------------------------------------------------------------------
# lease waiters (ArtifactStore._wait_for_peer)
# ----------------------------------------------------------------------

def test_wait_for_returns_when_predicate_turns_true(tmp_path):
    """The waiter returns the holder's artifact once it is published,
    without computing it."""
    store = ArtifactStore(tmp_path, lease_timeout=30.0, lease_poll=0.01)
    peer = ArtifactStore(tmp_path)
    held = peer.claims.claim("sim", "fp")
    assert held is not None

    def publish():
        time.sleep(0.05)
        peer.put_json("sim", "fp", {"v": 1})
        held.release()

    publisher = threading.Thread(target=publish)
    publisher.start()
    try:
        value = store.fetch_json(
            "sim", "fp", compute=lambda: pytest.fail("waiter computed"))
    finally:
        publisher.join(timeout=10.0)
    assert not publisher.is_alive()
    assert value == {"v": 1}
    assert store.stats()["sim"].executions == 0


def test_wait_for_times_out_transiently(tmp_path):
    """A live holder that never publishes: the waiter raises the
    transient LeaseTimeoutError, naming the artifact."""
    store = ArtifactStore(tmp_path, lease_timeout=0.05, lease_poll=0.01)
    held = store.claims.claim("sim", "fp")  # this live process holds it
    assert held is not None
    with pytest.raises(LeaseTimeoutError) as excinfo:
        store.fetch_json("sim", "fp", compute=lambda: 1)
    assert "sim/fp" in str(excinfo.value)
    held.release()


def test_wait_for_total_sleep_never_overshoots_deadline(tmp_path):
    """Each jittered poll is clamped to the time left, so a 2 s poll
    base cannot stretch a 0.05 s timeout."""
    store = ArtifactStore(tmp_path, lease_timeout=0.05, lease_poll=2.0)
    held = store.claims.claim("sim", "fp")
    started = time.monotonic()
    with pytest.raises(LeaseTimeoutError):
        store.fetch_json("sim", "fp", compute=lambda: 1)
    assert time.monotonic() - started < 1.0
    held.release()


# ----------------------------------------------------------------------
# decorrelated jitter (anti-stampede polling)
# ----------------------------------------------------------------------

def test_jitter_rejects_negative_base():
    with pytest.raises(ValueError):
        DecorrelatedJitter(-0.1)


def test_jitter_zero_base_degenerates_to_zero_delays():
    jitter = DecorrelatedJitter(0.0)
    assert [jitter.next_delay() for _ in range(5)] == [0.0] * 5


@given(base=st.floats(min_value=1e-4, max_value=2.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_jitter_delays_stay_in_band(base, seed):
    """Every delay lands in [base, cap] — bounded above and below."""
    jitter = DecorrelatedJitter(base, rng=random.Random(seed))
    for _ in range(50):
        delay = jitter.next_delay()
        assert base <= delay <= jitter.cap + 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_jitter_spreads_waiters_apart(seed):
    """Two waiters with different rng streams decorrelate: their delay
    sequences must not stay in lock-step (the stampede the fixed
    interval produced)."""
    rng = random.Random(seed)
    a = DecorrelatedJitter(0.05, rng=random.Random(rng.random()))
    b = DecorrelatedJitter(0.05, rng=random.Random(rng.random()))
    delays_a = [a.next_delay() for _ in range(20)]
    delays_b = [b.next_delay() for _ in range(20)]
    assert delays_a != delays_b


def test_jitter_uses_injected_rng_deterministically():
    def delays():
        jitter = DecorrelatedJitter(0.05, rng=random.Random(1234))
        return [jitter.next_delay() for _ in range(20)]

    assert delays() == delays()
