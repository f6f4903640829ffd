"""Property tests over the workload generators: any seed, several scales."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.executor import Executor
from repro.workloads.suite import get_workload, workload_names

#: the cheapest-to-run subset for the per-seed property sweep
FAST_WORKLOADS = ("qsort", "sha", "patricia", "stringsearch")


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.sampled_from(FAST_WORKLOADS))
def test_any_seed_self_checks(seed, name):
    """The mirror-computed expected value matches for arbitrary seeds."""
    from repro.isa.assembler import assemble

    spec = get_workload(name)
    program = assemble(spec.builder(0.03, seed), name=name)
    executor = Executor(program)
    executor.run_to_completion()
    assert executor.state.exit_code == 0


@pytest.mark.parametrize("scale", [0.02, 0.06, 0.2])
@pytest.mark.parametrize("name", ["qsort", "sha", "dijkstra"])
def test_multiple_scales_self_check(scale, name):
    from repro.workloads.suite import build_program

    executor = Executor(build_program(name, scale=scale))
    executor.run_to_completion()
    assert executor.state.exit_code == 0


@pytest.mark.parametrize("name", workload_names())
def test_instruction_counts_monotone_in_scale(name):
    """More scale never means fewer instructions (three-point check)."""
    from repro.workloads.suite import build_program

    counts = []
    for scale in (0.03, 0.1, 0.3):
        executor = Executor(build_program(name, scale=scale))
        executor.run_to_completion()
        counts.append(executor.state.retired)
    # Quantized sizing (fft round counts, matmult dimensions) can make
    # neighbouring scales tie, but never shrink.
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[0] < counts[2]


@pytest.mark.parametrize("name", workload_names())
def test_programs_touch_bounded_memory(name):
    """Workloads stay within a few MiB of sparse memory (sane images)."""
    from repro.workloads.suite import build_program

    executor = Executor(build_program(name, scale=0.05))
    executor.run_to_completion()
    pages = len(executor.state.memory.snapshot_pages())
    assert pages < 1024  # < 4 MiB touched
