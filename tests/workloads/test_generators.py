"""Functional correctness of the eleven workload generators.

Every workload embeds a self-check computed by a bit-exact Python mirror;
exit code 0 means the architectural results match the mirror.  These tests
run miniature scales to keep the suite fast; the benchmark harness runs
the Table II scale.
"""

import pytest

from repro.sim.executor import Executor
from repro.workloads.suite import build_program, get_workload, workload_names

SMALL = 0.03


@pytest.mark.parametrize("name", workload_names())
def test_self_check_passes(name):
    program = build_program(name, scale=SMALL)
    executor = Executor(program)
    executor.run_to_completion()
    assert executor.state.exit_code == 0, \
        f"{name} self-check failed (exit {executor.state.exit_code})"


@pytest.mark.parametrize("name", workload_names())
def test_deterministic_across_builds(name):
    from repro.workloads.suite import get_workload as gw

    spec = gw(name)
    assert spec.builder(SMALL, 7) == spec.builder(SMALL, 7)


@pytest.mark.parametrize("name", workload_names())
def test_different_seed_changes_program(name):
    spec = get_workload(name)
    assert spec.builder(SMALL, 1) != spec.builder(SMALL, 2)


@pytest.mark.parametrize("name", workload_names())
def test_scale_monotonicity(name):
    """A larger scale must execute at least as many instructions."""
    small = Executor(build_program(name, scale=SMALL))
    small.run_to_completion()
    larger = Executor(build_program(name, scale=4 * SMALL))
    larger.run_to_completion()
    assert larger.state.retired > small.state.retired


@pytest.mark.parametrize("name", ["fft", "ifft", "qsort"])
def test_fp_benchmarks_use_fp_instructions(name):
    program = build_program(name, scale=SMALL)
    fp_ops = [i for i in program.instructions
              if i.opclass.issue_queue == "fp" or i.mnemonic in ("fld", "fsd")]
    assert fp_ops, f"{name} must exercise the FP pipeline"


@pytest.mark.parametrize(
    "name", ["basicmath", "stringsearch", "bitcount", "dijkstra",
             "patricia", "matmult", "sha", "tarfind"])
def test_integer_benchmarks_avoid_fp(name):
    """Only fft/ifft/qsort touch FP registers (paper §IV-B)."""
    program = build_program(name, scale=SMALL)
    fp_ops = [i for i in program.instructions
              if i.opclass.issue_queue == "fp" or i.mnemonic in ("fld", "fsd")]
    assert fp_ops == [], f"{name} must not use FP registers"


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_full_scale_instruction_counts_match_table_ii(name):
    """At scale 1.0 dynamic counts track Table II / 1000 within 25%."""
    spec = get_workload(name)
    executor = Executor(build_program(name, scale=1.0))
    executor.run_to_completion()
    assert executor.state.exit_code == 0
    target = spec.target_instructions(1.0)
    assert abs(executor.state.retired - target) / target < 0.25


def test_sha_has_three_code_phases():
    """sha's three phases appear as distinct text regions (Table II: 3 SPs)."""
    source = get_workload("sha").builder(SMALL, 7)
    for label in ("sched_loop", "block_a", "block_b"):
        assert label in source


def test_bitcount_has_three_code_phases():
    source = get_workload("bitcount").builder(SMALL, 7)
    for label in ("kern_loop", "swar_loop", "table_loop"):
        assert label in source
