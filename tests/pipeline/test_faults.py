"""Tests for the deterministic fault-injection harness."""

import time

import pytest

from repro.errors import PERMANENT, TRANSIENT, classify_failure
from repro.pipeline.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFailure,
    parse_fault_spec,
)


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------

def test_parse_minimal_spec():
    (spec,) = parse_fault_spec("worker.experiment:crash")
    assert spec.site == "worker.experiment"
    assert spec.kind == "crash"
    assert spec.probability == 1.0
    assert spec.max_fires == 1
    assert spec.key_filter is None


def test_parse_full_spec():
    specs = parse_fault_spec(
        "artifact.read:io:p=0.5:n=3,worker.experiment:hang:s=2:k=qsort")
    assert specs[0] == FaultSpec("artifact.read", "io", probability=0.5,
                                 max_fires=3)
    assert specs[1].seconds == 2.0
    assert specs[1].key_filter == "qsort"


@pytest.mark.parametrize("bad", [
    "justasite",                  # no kind
    "site:explode",               # unknown kind
    "site:io:x=1",                # unknown option
    "site:io:p=",                 # empty value
    "site:io:p=1.5",              # probability out of range
    "guard.disk:disk-full",       # retired kind: a stale spec is rejected
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_fault_spec(bad)


def test_parse_names_an_empty_option_value():
    with pytest.raises(ValueError, match="k= has an empty value"):
        parse_fault_spec("stage.bbv_profile:fail:k=")


def test_env_spec(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "artifact.read:io")
    monkeypatch.setenv("REPRO_FAULT_SEED", "7")
    spec, seed = FaultInjector.env_spec()
    assert spec == "artifact.read:io"
    assert seed == 7
    monkeypatch.delenv("REPRO_FAULTS")
    spec, seed = FaultInjector.env_spec()
    assert spec is None


def test_env_spec_rejects_malformed(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "nonsense")
    with pytest.raises(ValueError):
        FaultInjector.env_spec()


# ----------------------------------------------------------------------
# deterministic decisions
# ----------------------------------------------------------------------

def test_probability_draw_is_deterministic():
    spec = FaultSpec("artifact.read", "io", probability=0.5, max_fires=0)
    a = FaultInjector([spec], seed=1)
    b = FaultInjector([spec], seed=1)
    keys = [f"stage/fp{i}" for i in range(64)]
    decisions_a = [a.decide("artifact.read", key) is not None
                   for key in keys]
    decisions_b = [b.decide("artifact.read", key) is not None
                   for key in keys]
    assert decisions_a == decisions_b
    # p=0.5 over 64 keys fires for some but not all
    assert any(decisions_a) and not all(decisions_a)


def test_different_seed_changes_decisions():
    spec = FaultSpec("artifact.read", "io", probability=0.5, max_fires=0)
    keys = [f"stage/fp{i}" for i in range(64)]
    one = [FaultInjector([spec], seed=1).decide("artifact.read", k)
           is not None for k in keys]
    two = [FaultInjector([spec], seed=2).decide("artifact.read", k)
           is not None for k in keys]
    assert one != two


def test_zero_probability_never_fires():
    spec = FaultSpec("artifact.read", "io", probability=0.0, max_fires=0)
    injector = FaultInjector([spec], seed=0)
    assert all(injector.decide("artifact.read", f"k{i}") is None
               for i in range(32))


def test_site_and_kind_filtering():
    spec = FaultSpec("artifact.read", "io")
    injector = FaultInjector([spec], seed=0)
    assert injector.decide("artifact.write", "k") is None
    assert injector.decide("artifact.read", "k", kinds=("corrupt",)) is None


def test_key_filter_restricts_fires():
    spec = FaultSpec("worker.experiment", "io", key_filter="qsort",
                     max_fires=0)
    injector = FaultInjector([spec], seed=0)
    assert injector.decide("worker.experiment", "sha/MediumBOOM") is None
    assert injector.decide("worker.experiment",
                           "qsort/MediumBOOM") is not None


# ----------------------------------------------------------------------
# fire caps (in-memory and cross-process marker files)
# ----------------------------------------------------------------------

def test_max_fires_in_memory():
    spec = FaultSpec("artifact.read", "io", max_fires=2)
    injector = FaultInjector([spec], seed=0)
    fired = [injector.decide("artifact.read", f"k{i}") is not None
             for i in range(5)]
    assert fired.count(True) == 2
    assert fired == [True, True, False, False, False]


def test_max_fires_shared_across_instances_via_state_dir(tmp_path):
    """Two injector instances (= two worker processes) share the cap."""
    spec = FaultSpec("worker.experiment", "crash", max_fires=1)
    first = FaultInjector([spec], seed=0, state_dir=tmp_path)
    second = FaultInjector([spec], seed=0, state_dir=tmp_path)
    assert first.decide("worker.experiment", "a") is not None
    assert second.decide("worker.experiment", "a") is None
    assert second.decide("worker.experiment", "b") is None


def test_unlimited_fires():
    spec = FaultSpec("artifact.read", "io", max_fires=0)
    injector = FaultInjector([spec], seed=0)
    assert all(injector.decide("artifact.read", f"k{i}") is not None
               for i in range(10))


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------

def test_inject_io_raises_transient_oserror():
    injector = FaultInjector([FaultSpec("site", "io")], seed=0)
    with pytest.raises(OSError) as excinfo:
        injector.inject("site", "key")
    assert classify_failure(excinfo.value) == TRANSIENT


def test_inject_fail_raises_permanent():
    injector = FaultInjector([FaultSpec("site", "fail")], seed=0)
    with pytest.raises(InjectedFailure) as excinfo:
        injector.inject("site", "key")
    assert classify_failure(excinfo.value) == PERMANENT


def test_inject_hang_sleeps():
    injector = FaultInjector([FaultSpec("site", "hang", seconds=0.05)],
                             seed=0)
    started = time.monotonic()
    injector.inject("site", "key")
    assert time.monotonic() - started >= 0.04


def test_inject_noop_when_nothing_configured():
    injector = FaultInjector([], seed=0)
    injector.inject("site", "key")  # must not raise


def test_corrupt_file_garbles_payload(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text('{"good": true}')
    injector = FaultInjector([FaultSpec("artifact.write", "corrupt")],
                             seed=0)
    assert injector.corrupt_file("artifact.write", "key", path)
    import json

    with pytest.raises(ValueError):
        json.loads(path.read_text())


def test_corrupt_is_not_fired_by_inject(tmp_path):
    """corrupt is a write post-condition, never an exception."""
    injector = FaultInjector([FaultSpec("artifact.write", "corrupt")],
                             seed=0)
    injector.inject("artifact.write", "key")  # must not raise or claim
    path = tmp_path / "artifact.json"
    path.write_text("{}")
    assert injector.corrupt_file("artifact.write", "key", path)


def test_from_settings_none_without_spec():
    class Settings:
        faults = None
        fault_seed = 0

    assert FaultInjector.from_settings(Settings(), None) is None


def test_from_settings_builds_state_dir(tmp_path):
    class Settings:
        faults = "artifact.read:io"
        fault_seed = 3

    injector = FaultInjector.from_settings(Settings(), tmp_path)
    assert injector.seed == 3
    assert injector.state_dir == tmp_path / "fault_state"


# ----------------------------------------------------------------------
# concurrency fault kinds (lock-steal, torn-commit)
# ----------------------------------------------------------------------

def test_plant_stale_lease_forges_dead_owner(tmp_path):
    from repro.pipeline.locking import WorkClaims

    injector = FaultInjector(parse_fault_spec("lease.claim:lock-steal:n=1"))
    path = tmp_path / "leases" / "stage" / "fp.lease"
    assert injector.plant_stale_lease("lease.claim", "stage/fp", path)
    holder = WorkClaims.holder(path)
    assert holder["boot_id"] == "injected-dead-boot"
    # one-shot by default
    assert not injector.plant_stale_lease("lease.claim", "stage/fp", path)


def test_lock_steal_fault_exercises_reclamation(tmp_path):
    """A store facing a planted dead lease steals it and still computes."""
    from repro.pipeline.artifacts import ArtifactStore

    injector = FaultInjector(parse_fault_spec("lease.claim:lock-steal:n=1"),
                             state_dir=tmp_path / "fault_state")
    store = ArtifactStore(tmp_path, faults=injector)
    value = store.fetch_json("stage", "fp", lambda: {"answer": 42})
    assert value == {"answer": 42}
    assert not store.claims.lease_path("stage", "fp").exists()


def test_torn_commit_leaves_recoverable_state(tmp_path):
    """torn-commit = garbage at final path + open journal claim + OSError."""
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.journal import (
        journal_files,
        open_intents,
        read_journal,
    )

    injector = FaultInjector(
        parse_fault_spec("artifact.write:torn-commit:n=1"),
        state_dir=tmp_path / "fault_state")
    store = ArtifactStore(tmp_path, faults=injector)
    with pytest.raises(OSError) as excinfo:
        store.put_json("stage", "fp", {"clean": True})
    assert classify_failure(excinfo.value) == TRANSIENT
    path = store.json_path("stage", "fp")
    with pytest.raises(ValueError):
        __import__("json").loads(path.read_text())  # garbage on disk
    (journal,) = journal_files(tmp_path)
    (pending,) = open_intents(read_journal(journal))
    assert pending.fingerprint == "fp"

