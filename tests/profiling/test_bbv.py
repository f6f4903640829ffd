"""Unit tests for BBV profiling."""

import json

import numpy as np
import pytest

from repro.errors import SimPointError
from repro.isa.assembler import assemble
from repro.profiling.bbv import (
    BBVProfiler,
    MAX_RESTART_POINTS,
    RestartTrail,
)

TWO_PHASE = """
_start:
    li t0, 200
phase_a:
    addi t0, t0, -1
    xor  t1, t1, t0
    bnez t0, phase_a
    li t0, 200
phase_b:
    addi t0, t0, -1
    add  t2, t2, t0
    slli t3, t2, 1
    bnez t0, phase_b
    li a0, 0
    li a7, 93
    ecall
"""


def test_interval_budget_respected():
    profiler = BBVProfiler(interval_size=100)
    profile = profiler.profile(assemble(TWO_PHASE))
    # every interval except possibly the last holds >= interval_size
    assert all(length >= 100 for length in profile.interval_lengths[:-1])
    assert sum(profile.interval_lengths) == profile.total_instructions


def test_vector_weights_sum_to_interval_lengths():
    profile = BBVProfiler(interval_size=100).profile(assemble(TWO_PHASE))
    for vector, length in zip(profile.vectors, profile.interval_lengths):
        assert sum(vector.values()) == length


def test_phases_have_distinct_vectors():
    profile = BBVProfiler(interval_size=100).profile(assemble(TWO_PHASE))
    matrix = profile.matrix()
    # First and last interval exercise disjoint blocks.
    first, last = matrix[0], matrix[-1]
    overlap = np.minimum(first, last).sum()
    assert overlap < 0.1


def test_matrix_rows_normalized():
    profile = BBVProfiler(interval_size=100).profile(assemble(TWO_PHASE))
    matrix = profile.matrix()
    assert np.allclose(matrix.sum(axis=1), 1.0)
    raw = profile.matrix(normalize=False)
    assert raw.sum() == profile.total_instructions


def test_weights_sum_to_one():
    profile = BBVProfiler(interval_size=100).profile(assemble(TWO_PHASE))
    assert profile.weights().sum() == pytest.approx(1.0)


def test_single_interval_when_size_huge():
    profile = BBVProfiler(interval_size=10**9).profile(assemble(TWO_PHASE))
    assert profile.num_intervals == 1


def test_invalid_interval_size():
    with pytest.raises(SimPointError):
        BBVProfiler(interval_size=0)


def test_empty_profile_matrix_raises():
    from repro.profiling.bbv import BBVProfile

    empty = BBVProfile(interval_size=10, vectors=[], interval_lengths=[],
                       blocks=[])
    with pytest.raises(SimPointError):
        empty.matrix()


def test_profile_total_matches_plain_execution():
    from repro.sim.executor import Executor

    program = assemble(TWO_PHASE)
    plain = Executor(program)
    plain.run_to_completion()
    profile = BBVProfiler(interval_size=50).profile(assemble(TWO_PHASE))
    assert profile.total_instructions == plain.state.retired


def test_traced_profile_equals_untraced():
    """Tracing puts the run's total on its span and changes nothing."""
    from repro.obs.tracer import configure_tracer, reset_tracer
    from repro.pipeline.stages import profile_to_dict

    untraced = BBVProfiler(interval_size=50).profile(assemble(TWO_PHASE))
    sink: list = []
    configure_tracer(sink=sink)
    try:
        traced = BBVProfiler(interval_size=50).profile(assemble(TWO_PHASE))
    finally:
        reset_tracer()
    assert json.dumps(profile_to_dict(traced)) == \
        json.dumps(profile_to_dict(untraced))
    (end,) = [record for record in sink if record["type"] == "E"
              and record["name"] == "functional.profile"]
    assert end["attrs"] == {"workload": traced.program_name,
                            "instructions": traced.total_instructions}


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("source", ["two_phase", "patricia"])
def test_trail_leaves_the_profile_unchanged(source, traced):
    """Restart points are taken at interval closes and change nothing."""
    from repro.obs.tracer import configure_tracer, reset_tracer
    from repro.pipeline.stages import profile_to_dict
    from repro.workloads.suite import build_program

    def profile(trail):
        program = assemble(TWO_PHASE) if source == "two_phase" \
            else build_program("patricia", scale=0.05)
        return json.dumps(profile_to_dict(BBVProfiler(
            interval_size=50).profile(program, trail=trail)))

    plain = profile(None)
    if traced:
        configure_tracer(sink=[])
    try:
        trail = RestartTrail()
        assert profile(trail) == plain
        assert profile(None) == plain
    finally:
        reset_tracer()
    assert trail.points


def test_trail_points_restore_the_state_at_interval_closes():
    from repro.sim.executor import Executor
    from repro.workloads.suite import build_program

    program = build_program("patricia", scale=0.05)
    trail = RestartTrail()
    profile = BBVProfiler(interval_size=50).profile(program, trail=trail)
    points = trail.points
    # evenly spaced: the interval closes at every multiple of a
    # power-of-two stride, at most MAX_RESTART_POINTS of them, reaching
    # to within one stride of the end
    closes = [point.interval_index for point in points]
    assert [point.instruction_index for point in points] == \
        [profile.interval_starts()[close] for close in closes]
    stride = closes[0]
    assert profile.num_intervals > 2 * MAX_RESTART_POINTS
    assert stride & (stride - 1) == 0 and stride > 1
    assert closes == [stride * k for k in range(1, len(points) + 1)]
    assert MAX_RESTART_POINTS // 2 <= len(points) <= MAX_RESTART_POINTS
    assert stride * (len(points) + 1) >= profile.num_intervals - 1
    for point in points:
        reference = Executor(program)
        reference.run(max_instructions=point.instruction_index)
        expected, restored = reference.state, point.restore()
        assert (restored.pc, restored.retired, restored.x, restored.f,
                restored.fcsr) == (expected.pc, expected.retired,
                                   expected.x, expected.f, expected.fcsr)
        assert restored.memory.snapshot_pages() == \
            expected.memory.snapshot_pages()
    # a page unchanged since the previous point shares its bytes
    shared = 0
    for before, after in zip(points, points[1:]):
        for number, page in after.pages.items():
            if before.pages.get(number) == page:
                assert page is before.pages[number]
                shared += 1
    assert shared
