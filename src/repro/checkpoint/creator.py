"""Checkpoint creation at SimPoint boundaries.

Given a SimPoint selection, run the functional simulator once and snapshot
architectural state at each chosen point's warm-up start — i.e.
``interval_index * interval_size - warmup`` retired instructions (clamped
to 0).  One sequential pass produces all checkpoints, exactly like the
paper's Spike-based generation step (Fig. 4, step 3).
"""

from __future__ import annotations

from repro.errors import CheckpointError
from repro.checkpoint.checkpoint import Checkpoint
from repro.isa.program import Program
from repro.obs.tracer import get_tracer
from repro.sim.executor import Executor
from repro.simpoint.simpoints import (
    DEFAULT_WARMUP,
    SimPoint,
    SimPointSelection,
)


def checkpoint_starts(points: list[SimPoint], interval_size: int,
                      warmup: int) -> list[tuple[SimPoint, int, int]]:
    """Compute (point, capture index, actual warm-up) for each point.

    The capture index is where the functional run snapshots; the actual
    warm-up can be shorter than requested when the SimPoint interval sits
    near the start of the program.  Points carry their exact start
    boundary (profile intervals overshoot the nominal size by up to one
    basic block); older selections without it fall back to
    ``interval_index * interval_size``.
    """
    out = []
    for point in sorted(points, key=lambda p: p.interval_index):
        measure_start = point.start_instruction \
            or point.interval_index * interval_size
        capture = max(0, measure_start - warmup)
        out.append((point, capture, measure_start - capture))
    return out


def create_checkpoints(program: Program, selection: SimPointSelection,
                       points: list[SimPoint] | None = None,
                       warmup: int = DEFAULT_WARMUP) -> list[Checkpoint]:
    """Create checkpoints for ``points`` (default: the top-ranked points).

    Returns checkpoints in ascending instruction order.  Raises
    :class:`CheckpointError` if the program exits before a requested
    boundary (which would indicate a stale SimPoint selection).
    """
    if points is None:
        points = selection.top_points()
    if not points:
        raise CheckpointError("no SimPoints to checkpoint")
    plan = checkpoint_starts(points, selection.interval_size, warmup)

    executor = Executor(program)
    state = executor.state
    checkpoints: list[Checkpoint] = []
    for point, capture_index, actual_warmup in plan:
        remaining = capture_index - state.retired
        if remaining < 0:
            raise CheckpointError(
                "SimPoints overlap: two checkpoints within one warm-up")
        if remaining:
            executor.run(max_instructions=remaining)
        if state.retired != capture_index:
            raise CheckpointError(
                f"program exited at {state.retired} instructions, before "
                f"the SimPoint boundary at {capture_index}")
        checkpoint = Checkpoint.capture(
            state, workload=program.name,
            interval_index=point.interval_index,
            weight=point.weight,
            warmup_instructions=actual_warmup)
        checkpoint.measure_instructions = point.length or None
        checkpoints.append(checkpoint)
        get_tracer().event("checkpoint.capture", workload=program.name,
                           interval=point.interval_index,
                           retired=state.retired)
    return checkpoints
