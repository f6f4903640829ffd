"""Tests for checkpoint creation at SimPoint boundaries."""

import pytest

from repro.checkpoint.creator import (
    checkpoint_starts,
    create_checkpoints,
    DEFAULT_WARMUP,
)
from repro.checkpoint.loader import resume_functional, verify_checkpoint
from repro.errors import CheckpointError
from repro.profiling.bbv import BBVProfiler
from repro.simpoint.simpoints import select_simpoints, SimPoint
from repro.workloads.suite import build_program, get_workload

SCALE = 0.2


@pytest.fixture(scope="module")
def qsort_setup():
    program = build_program("qsort", scale=SCALE)
    interval = get_workload("qsort").interval_for_scale(SCALE)
    profile = BBVProfiler(interval).profile(program)
    selection = select_simpoints(profile, seed=17, bic_threshold=0.4)
    return program, selection


def test_checkpoint_starts_clamp_warmup():
    points = [SimPoint(interval_index=0, cluster=0, weight=0.5),
              SimPoint(interval_index=10, cluster=1, weight=0.5)]
    plan = checkpoint_starts(points, interval_size=100, warmup=500)
    first_point, first_capture, first_warmup = plan[0]
    assert first_capture == 0
    assert first_warmup == 0
    second_point, second_capture, second_warmup = plan[1]
    assert second_capture == 500
    assert second_warmup == 500


def test_create_checkpoints_land_on_boundaries(qsort_setup):
    program, selection = qsort_setup
    warmup = 100
    checkpoints = create_checkpoints(program, selection, warmup=warmup)
    top = {p.interval_index: p for p in selection.top_points()}
    assert len(checkpoints) == len(top)
    for checkpoint in checkpoints:
        point = top[checkpoint.interval_index]
        # Checkpoints use the interval's *exact* start boundary (profile
        # intervals overshoot the nominal size by up to one basic block).
        start = point.start_instruction
        assert start >= point.interval_index * selection.interval_size
        assert checkpoint.instruction_index == max(0, start - warmup)
        assert checkpoint.warmup_instructions == \
            start - checkpoint.instruction_index
        assert checkpoint.measure_instructions == point.length
        assert point.length >= selection.interval_size or \
            start + point.length >= selection.total_instructions


def test_checkpoints_are_resume_equivalent(qsort_setup):
    program, selection = qsort_setup
    for checkpoint in create_checkpoints(program, selection, warmup=100):
        assert verify_checkpoint(program, checkpoint,
                                 probe_instructions=300)


def test_checkpoint_weights_match_selection(qsort_setup):
    program, selection = qsort_setup
    checkpoints = create_checkpoints(program, selection, warmup=100)
    expected = {p.interval_index: p.weight for p in selection.top_points()}
    for checkpoint in checkpoints:
        assert checkpoint.weight == expected[checkpoint.interval_index]


def test_explicit_points_subset(qsort_setup):
    program, selection = qsort_setup
    subset = selection.top_points()[:1]
    checkpoints = create_checkpoints(program, selection, points=subset,
                                     warmup=100)
    assert len(checkpoints) == 1


def test_no_points_raises(qsort_setup):
    program, selection = qsort_setup
    with pytest.raises(CheckpointError):
        create_checkpoints(program, selection, points=[])


def test_boundary_beyond_program_end_raises(qsort_setup):
    program, selection = qsort_setup
    bogus = [SimPoint(interval_index=10**6, cluster=0, weight=1.0)]
    with pytest.raises(CheckpointError):
        create_checkpoints(program, selection, points=bogus)


def test_resume_functional_checks_name(qsort_setup):
    program, selection = qsort_setup
    checkpoint = create_checkpoints(program, selection, warmup=100)[0]
    other = build_program("sha", scale=0.05)
    with pytest.raises(CheckpointError):
        resume_functional(other, checkpoint)


def test_default_warmup_matches_paper_scale():
    # 2k warm-up at 1:1000 scale corresponds to the paper's 2M warm-up.
    assert DEFAULT_WARMUP == 2000
