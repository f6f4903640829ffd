"""Runtime invariants: clean on real runs, loud on corrupted state.

Property-style tests push randomized programs through the detailed core
with a :class:`CoreInvariantChecker` attached; corruption tests then
damage one structure at a time and assert the checker names the broken
law — proving the checks are not vacuous.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.invariants import CoreInvariantChecker
from repro.errors import CheckError, InvariantViolation
from repro.isa.assembler import assemble
from repro.uarch.config import ALL_CONFIGS, MEDIUM_BOOM
from repro.uarch.core import BoomCore

from tests.uarch.test_differential import generate_program


def run_checked(source: str, config, budget: int | None = None):
    core = BoomCore(config, assemble(source))
    checker = CoreInvariantChecker(core)
    core.run(budget, observers=[checker])
    checker.check()
    return core, checker


@pytest.mark.parametrize("seed", [3, 17, 99])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_random_programs_hold_invariants(seed, config):
    core, checker = run_checked(generate_program(seed), config)
    assert core.frontend.trace.state.exited
    assert checker.checks_run >= 1


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_hold_invariants_property(seed):
    source = generate_program(seed, body_ops=40, iterations=6)
    run_checked(source, MEDIUM_BOOM)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_lazy_fp_config_holds_invariants(config):
    run_checked(generate_program(5), config.with_lazy_fp_snapshots())


def test_mid_flight_state_holds_invariants():
    # Stop with uops still in flight (retire budget < program length):
    # the settled-but-partial state must satisfy every law too.
    core = BoomCore(MEDIUM_BOOM, assemble(generate_program(11)))
    checker = CoreInvariantChecker(core)
    core.run(300, observers=[checker])
    checker.check()
    assert not core.frontend.trace.state.exited


def test_checked_run_is_behavior_identical():
    source = generate_program(23)
    plain = BoomCore(MEDIUM_BOOM, assemble(source))
    plain.run()
    checked, _ = run_checked(source, MEDIUM_BOOM)
    assert checked.cycle == plain.cycle
    assert checked.retired_total == plain.retired_total
    assert checked.stats.ipc == plain.stats.ipc


def test_wrapped_heartbeat_still_called():
    # An observer listed after the checker is called at every stride.
    calls = []
    core = BoomCore(MEDIUM_BOOM, assemble(
        generate_program(2, body_ops=80, iterations=60)))
    checker = CoreInvariantChecker(core)
    core.run(observers=[checker, lambda: calls.append(
        (core.retired_total, core.cycle))])
    assert calls
    assert len(calls) == checker.checks_run


def _partial_core(budget: int = 300):
    """A core stopped mid-program, with uops and state in flight."""
    core = BoomCore(MEDIUM_BOOM, assemble(generate_program(31)))
    core.run(budget)
    return core, CoreInvariantChecker(core)


def _violation(checker) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check()
    return excinfo.value


class TestCorruptionIsCaught:
    """Each injected corruption must trip exactly the matching law."""

    def test_free_list_leak(self):
        core, checker = _partial_core()
        core.rename.int_unit.free -= 1
        assert "rename.x" in str(_violation(checker))

    def test_free_list_overflow(self):
        core, checker = _partial_core()
        unit = core.rename.int_unit
        unit.free = unit.phys_regs  # > phys - 32
        assert "rename.x.free_bound" in str(_violation(checker))

    def test_alloc_counter_drift(self):
        core, checker = _partial_core()
        core.rename.fp_unit.total_allocs += 3
        assert "rename.f.alloc_balance" in str(_violation(checker))

    def test_phantom_snapshot_restore(self):
        # The lazy-FP recover bug this PR fixes produced exactly this
        # signature: more restores than snapshots ever taken.
        core, checker = _partial_core()
        unit = core.rename.fp_unit
        unit.total_restores = unit.total_snapshots + 1
        assert "snapshot_balance" in str(_violation(checker))

    def test_branch_counter_drift(self):
        core, checker = _partial_core()
        core.branches_in_flight += 1
        assert "branches.accounting" in str(_violation(checker))

    def test_rob_over_capacity(self):
        core, checker = _partial_core()
        assert len(core.rob) > 0
        core.rob.entries = len(core.rob) - 1
        assert "rob.capacity" in str(_violation(checker))

    def test_lsu_ledger_drift(self):
        core, checker = _partial_core()
        core.lsu._ldq.append(object())
        message = str(_violation(checker))
        assert "lsu.ldq" in message

    @pytest.mark.parametrize("law, corrupt", [
        ("rename.x", lambda core: setattr(
            core.rename.int_unit, "free", core.rename.int_unit.free - 1)),
        ("branches.accounting", lambda core: setattr(
            core, "branches_in_flight", core.branches_in_flight + 1)),
    ], ids=["free_leak", "branch_drift"])
    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "generic"])
    def test_heartbeat_catches_corruption_mid_run(self, fused, law,
                                                  corrupt):
        # Corrupt from *inside* the run via a later observer: the write
        # sticks on either loop, so the next stride's check (or the
        # final one) must fail the run.
        core = BoomCore(MEDIUM_BOOM, assemble(
            generate_program(41, body_ops=80, iterations=60)))
        core._fused = fused

        def corruptor() -> None:
            corrupt(core)

        checker = CoreInvariantChecker(core)
        with pytest.raises(InvariantViolation, match=law):
            core.run(observers=[checker, corruptor])
            checker.check()

    def test_violation_is_check_error(self):
        core, checker = _partial_core()
        core.branches_in_flight += 1
        with pytest.raises(CheckError):
            checker.check()

    def test_violation_reports_cycle(self):
        core, checker = _partial_core()
        core.rename.int_unit.free -= 1
        assert f"cycle {core.cycle}" in str(_violation(checker))
