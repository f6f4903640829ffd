"""Unit tests for BBV profiling."""

import numpy as np
import pytest

from repro.errors import SimPointError
from repro.isa.assembler import assemble
from repro.profiling.bbv import BBVProfiler

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


def test_traced_profile_equals_untraced(monkeypatch):
    """Tracing samples heartbeats at interval closes and changes nothing."""
    from repro.obs.tracer import configure_tracer, reset_tracer
    from repro.pipeline.stages import profile_to_dict

    untraced = BBVProfiler(interval_size=50).profile(assemble(TWO_PHASE))
    monkeypatch.setenv("REPRO_TRACE_HEARTBEAT", "1e-9")
    sink: list = []
    configure_tracer(sink=sink)
    try:
        traced = BBVProfiler(interval_size=50).profile(assemble(TWO_PHASE))
    finally:
        reset_tracer()
    assert profile_to_dict(traced) == profile_to_dict(untraced)
    values = [record["attrs"]["value"] for record in sink
              if record["type"] == "hb"]
    assert len(values) > 2
    assert values == sorted(values)
    assert values[-1] == traced.total_instructions
