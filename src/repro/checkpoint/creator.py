"""Checkpoint creation at SimPoint boundaries.

Given a SimPoint selection, run the functional simulator and snapshot
architectural state at each chosen point's warm-up start — i.e.
``interval_index * interval_size - warmup`` retired instructions (clamped
to 0), like the paper's Spike-based generation step (Fig. 4, step 3).

The points are captured in ascending order.  Each capture resumes from
the nearest restart point at or before it — a state the profile pass
left at an interval close (:class:`~repro.profiling.bbv.RestartTrail`) —
or from where the previous capture stopped, whichever is later; with no
restart points (a profile read from disk), the first capture starts from
the program's initial state.  The functional model is deterministic, so
the checkpoints are byte-identical wherever each capture starts.
"""

from __future__ import annotations

from collections.abc import Sequence

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
                       warmup: int = DEFAULT_WARMUP,
                       restarts: Sequence[Checkpoint] = ()) \
        -> list[Checkpoint]:
    """Create checkpoints for ``points`` (default: the top-ranked points).

    ``restarts`` are restart points of this program in ascending order,
    the checkpoints a profile pass left in its
    :class:`~repro.profiling.bbv.RestartTrail`; each capture resumes from
    the nearest one at or before it.

    Returns checkpoints in ascending instruction order.  Raises
    :class:`CheckpointError` if the program exits before a requested
    boundary (which would indicate a stale SimPoint selection).
    """
    if points is None:
        points = selection.top_points()
    if not points:
        raise CheckpointError("no SimPoints to checkpoint")
    plan = checkpoint_starts(points, selection.interval_size, warmup)

    executor: Executor | None = None
    checkpoints: list[Checkpoint] = []
    for point, capture_index, actual_warmup in plan:
        start = None
        for restart in restarts:
            if restart.instruction_index > capture_index:
                break
            start = restart
        if executor is None or start is not None \
                and start.instruction_index > executor.state.retired:
            executor = Executor(program, state=None if start is None
                                else start.restore())
        state = executor.state
        remaining = capture_index - state.retired
        # the plan ascends, and no restart point lies past its capture
        assert remaining >= 0, "checkpoint plan out of order"
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
