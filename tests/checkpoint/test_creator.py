"""Tests for checkpoint creation at SimPoint boundaries."""

import pytest

from repro.checkpoint.creator import (
    checkpoint_starts,
    create_checkpoints,
    DEFAULT_WARMUP,
)
from repro.checkpoint.loader import resume_functional, verify_checkpoint
from repro.errors import CheckpointError
from repro.flow.experiment import FlowSettings
from repro.pipeline.stages import (
    compute_checkpoints,
    compute_profile,
    compute_selection,
)
from repro.profiling.bbv import BBVProfiler, RestartTrail
from repro.sim.executor import Executor
from repro.simpoint.simpoints import select_simpoints, SimPoint
from repro.workloads.suite import build_program, get_workload, workload_names

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


@pytest.fixture(scope="module")
def qsort_trail():
    """qsort profiled with a restart trail, and the profile's selection."""
    program = build_program("qsort", scale=SCALE)
    interval = get_workload("qsort").interval_for_scale(SCALE)
    trail = RestartTrail()
    profile = BBVProfiler(interval).profile(program, trail=trail)
    selection = select_simpoints(profile, seed=17, bic_threshold=0.4)
    return program, profile, selection, trail.points


def _blobs(checkpoints):
    return [checkpoint.to_bytes() for checkpoint in checkpoints]


def _counting_runs(monkeypatch):
    """Instructions the functional executor retires from now on."""
    retired = [0]
    run = Executor.run

    def counted(self, *args, **kwargs):
        count = run(self, *args, **kwargs)
        retired[0] += count
        return count

    monkeypatch.setattr(Executor, "run", counted)
    return retired


def _point_at(profile, interval):
    return SimPoint(interval_index=interval, cluster=0, weight=1.0,
                    start_instruction=profile.interval_starts()[interval],
                    length=profile.interval_lengths[interval])


@pytest.mark.parametrize("seed", [7, 17])
@pytest.mark.parametrize("workload", workload_names())
def test_restart_points_give_the_checkpoints_of_a_full_replay(workload,
                                                              seed):
    settings = FlowSettings(scale=0.05, seed=seed)
    program = build_program(workload, scale=0.05, seed=seed)
    trail = RestartTrail()
    profile = compute_profile(workload, settings, program, trail)
    selection = compute_selection(profile, settings)
    resumed = compute_checkpoints(workload, settings, selection, program,
                                  trail.points)
    replayed = compute_checkpoints(workload, settings, selection, program)
    assert _blobs(resumed) == _blobs(replayed)


def test_capture_at_instruction_zero(qsort_trail, monkeypatch):
    # the warm-up of interval 1 clamps to the program start, before any
    # restart point: the capture is the initial state itself
    program, profile, selection, restarts = qsort_trail
    points = [_point_at(profile, 1)]
    retired = _counting_runs(monkeypatch)
    checkpoint, = create_checkpoints(program, selection, points=points,
                                     warmup=10**6, restarts=restarts)
    assert retired[0] == 0
    assert checkpoint.instruction_index == 0
    assert checkpoint.warmup_instructions == points[0].start_instruction
    assert _blobs([checkpoint]) == _blobs(create_checkpoints(
        program, selection, points=points, warmup=10**6))
    assert verify_checkpoint(program, checkpoint, probe_instructions=300)


def test_capture_on_a_restart_point_runs_nothing(qsort_trail, monkeypatch):
    program, profile, selection, restarts = qsort_trail
    restart = restarts[len(restarts) // 2]
    interval = restart.interval_index + 1
    point = _point_at(profile, interval)
    warmup = point.start_instruction - restart.instruction_index
    retired = _counting_runs(monkeypatch)
    checkpoint, = create_checkpoints(program, selection, points=[point],
                                     warmup=warmup, restarts=restarts)
    assert retired[0] == 0
    assert checkpoint.instruction_index == restart.instruction_index
    assert _blobs([checkpoint]) == _blobs(create_checkpoints(
        program, selection, points=[point], warmup=warmup))


def test_capture_in_the_last_partial_interval(qsort_trail, monkeypatch):
    program, profile, selection, restarts = qsort_trail
    last = profile.num_intervals - 1
    start = profile.interval_starts()[last]
    length = profile.interval_lengths[last]
    assert length < profile.interval_size
    point = SimPoint(interval_index=last, cluster=0, weight=1.0,
                     start_instruction=start + length // 2 + 10,
                     length=length - length // 2 - 10)
    retired = _counting_runs(monkeypatch)
    checkpoint, = create_checkpoints(program, selection, points=[point],
                                     warmup=10, restarts=restarts)
    capture = checkpoint.instruction_index
    assert capture == start + length // 2
    # resumed from the last restart point, not from the start
    assert restarts[-1].instruction_index <= capture
    assert retired[0] == capture - restarts[-1].instruction_index
    assert _blobs([checkpoint]) == _blobs(create_checkpoints(
        program, selection, points=[point], warmup=10))
    assert verify_checkpoint(program, checkpoint, probe_instructions=300)


@pytest.mark.parametrize("resume", [False, True],
                         ids=["replayed", "resumed"])
def test_adjacent_simpoints_with_overlapping_warmups(qsort_trail, resume):
    # intervals i and i+1 with a warm-up of more than two intervals: the
    # second warm-up starts before the first point, yet each checkpoint
    # lands on its own boundary
    program, profile, selection, restarts = qsort_trail
    interval = profile.num_intervals // 2
    points = [_point_at(profile, interval), _point_at(profile, interval + 1)]
    warmup = 2 * selection.interval_size + 50
    checkpoints = create_checkpoints(program, selection, points=points,
                                     warmup=warmup,
                                     restarts=restarts if resume else ())
    assert [c.instruction_index for c in checkpoints] == \
        [point.start_instruction - warmup for point in points]
    assert [c.warmup_instructions for c in checkpoints] == [warmup, warmup]
    for checkpoint in checkpoints:
        assert verify_checkpoint(program, checkpoint,
                                 probe_instructions=300)
