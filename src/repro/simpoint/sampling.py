"""Baseline sampling strategies to compare SimPoint against.

SimPoint's value proposition is that *phase-aware* interval selection
beats naive sampling at the same simulation budget.  This module provides
the two canonical baselines:

* **periodic sampling** (SMARTS-style): every k-th interval, equal
  weights;
* **random sampling**: a seeded uniform draw of intervals, equal weights.

Both return a :class:`~repro.simpoint.simpoints.SimPointSelection`, so
the rest of the flow (checkpoints, detailed simulation, weighting) runs
unchanged — the comparison isolates the selection policy.
"""

from __future__ import annotations

from repro.errors import SimPointError
from repro.profiling.bbv import BBVProfile
from repro.simpoint.pcg64 import Generator
from repro.simpoint.simpoints import SimPoint, SimPointSelection


def _selection_from_indices(profile: BBVProfile,
                            indices: list[int]) -> SimPointSelection:
    if not indices:
        raise SimPointError("no intervals selected")
    starts = profile.interval_starts()
    lengths = profile.interval_lengths
    total = sum(lengths[i] for i in indices)
    points = [SimPoint(interval_index=i, cluster=rank,
                       weight=lengths[i] / total,
                       start_instruction=starts[i], length=lengths[i])
              for rank, i in enumerate(sorted(indices))]
    return SimPointSelection(
        points=points, chosen_k=len(points),
        interval_size=profile.interval_size,
        num_intervals=profile.num_intervals,
        total_instructions=profile.total_instructions,
        labels=None, coverage_target=1.0)


def periodic_selection(profile: BBVProfile,
                       count: int) -> SimPointSelection:
    """Every (n/count)-th interval, starting at the first stride midpoint."""
    if count <= 0:
        raise SimPointError("count must be positive")
    n = profile.num_intervals
    count = min(count, n)
    stride = n / count
    indices = sorted({min(n - 1, int(stride * i + stride / 2))
                      for i in range(count)})
    return _selection_from_indices(profile, indices)


def random_selection(profile: BBVProfile, count: int,
                     seed: int = 0) -> SimPointSelection:
    """A uniform random draw of ``count`` distinct intervals."""
    if count <= 0:
        raise SimPointError("count must be positive")
    n = profile.num_intervals
    count = min(count, n)
    indices = sorted(Generator(seed).sample(n, count))
    return _selection_from_indices(profile, indices)
