"""SimPoint selection: from BBV profile to weighted simulation points.

This is the SimPoint 3.0 pipeline (paper Fig. 4):

1. row-normalize the BBV matrix and randomly project it to 15 dimensions,
2. run k-means for k = 1 .. max_k,
3. score each clustering with the BIC and pick the smallest k within 90 %
   of the best score,
4. for each cluster, emit the interval closest to the centroid as its
   simulation point, weighted by the cluster's share of execution,
5. rank simulation points by weight; the *top* points that reach the
   coverage target (90 % in the paper) are the ones actually simulated.

Example::

    profile = BBVProfiler(1000).profile(program)
    selection = select_simpoints(profile, seed=42)
    for point in selection.top_points():
        print(point.interval_index, point.weight)

Only :func:`select_simpoints` needs numpy and the clustering modules; the
selection types and defaults import without them, so a run that reads
stored selections never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimPointError
from repro.profiling.bbv import BBVProfile

DEFAULT_MAX_K = 10
DEFAULT_COVERAGE = 0.9
#: fraction of the best BIC the chosen k must reach (:mod:`.bic`)
DEFAULT_BIC_THRESHOLD = 0.9
#: random-projection width (:mod:`.projection`)
DEFAULT_DIMENSIONS = 15
#: instructions replayed un-measured before each simulation point: the
#: paper's 2M warm-up at the 1:1000 reproduction scale
DEFAULT_WARMUP = 2000


@dataclass(frozen=True)
class SimPoint:
    """One selected simulation point."""

    interval_index: int        # which interval of the profile
    cluster: int               # cluster this point represents
    weight: float              # fraction of execution it stands for
    start_instruction: int = 0  # exact dynamic-instruction boundary
    length: int = 0            # actual interval length in instructions


@dataclass
class SimPointSelection:
    """The complete result of SimPoint analysis for one workload."""

    points: list[SimPoint]
    chosen_k: int
    interval_size: int
    num_intervals: int
    total_instructions: int
    bic_scores: dict[int, float] = field(default_factory=dict)
    #: k-means cluster of each interval (None for non-clustered baselines)
    labels: tuple[int, ...] | None = None
    coverage_target: float = DEFAULT_COVERAGE

    def top_points(self, coverage: float | None = None) -> list[SimPoint]:
        """Highest-weight points reaching the coverage target.

        This is the "# Simpoints" column of Table II: the top-ranked
        points whose cumulative weight is at least ``coverage``.
        """
        target = self.coverage_target if coverage is None else coverage
        ranked = sorted(self.points, key=lambda p: p.weight, reverse=True)
        chosen: list[SimPoint] = []
        cumulative = 0.0
        for point in ranked:
            chosen.append(point)
            cumulative += point.weight
            if cumulative >= target:
                break
        return chosen

    def coverage_of(self, points: list[SimPoint]) -> float:
        """Total execution weight covered by ``points``."""
        return sum(point.weight for point in points)


def select_simpoints(profile: BBVProfile,
                     max_k: int = DEFAULT_MAX_K,
                     dimensions: int = DEFAULT_DIMENSIONS,
                     seed: int = 0,
                     bic_threshold: float = DEFAULT_BIC_THRESHOLD,
                     coverage: float = DEFAULT_COVERAGE) -> SimPointSelection:
    """Run the full SimPoint analysis over a BBV profile."""
    # numpy and the clustering stack load only for runs that cluster
    import numpy as np

    from repro.simpoint.bic import bic_score, choose_k
    from repro.simpoint.kmeans import kmeans, KMeansResult
    from repro.simpoint.projection import project

    if profile.num_intervals == 0:
        raise SimPointError("profile has no intervals")
    matrix = profile.matrix(normalize=True)
    projected = project(matrix, dimensions=dimensions, seed=seed)
    weights = profile.weights()

    limit = min(max_k, profile.num_intervals)
    results: dict[int, KMeansResult] = {}
    scores: dict[int, float] = {}
    for k in range(1, limit + 1):
        result = kmeans(projected, k, weights=weights, seed=seed + k)
        results[k] = result
        scores[k] = bic_score(projected, result)
    chosen_k = choose_k(scores, threshold=bic_threshold)
    best = results[chosen_k]

    points: list[SimPoint] = []
    cluster_weights = best.cluster_sizes(weights)
    starts = profile.interval_starts()
    for cluster in range(chosen_k):
        members = np.flatnonzero(best.labels == cluster)
        if members.size == 0:
            continue
        centroid = best.centroids[cluster]
        deltas = projected[members] - centroid
        distances = np.einsum("ij,ij->i", deltas, deltas)
        representative = int(members[distances.argmin()])
        points.append(SimPoint(
            interval_index=representative,
            cluster=cluster,
            weight=float(cluster_weights[cluster]),
            start_instruction=starts[representative],
            length=profile.interval_lengths[representative]))
    points.sort(key=lambda p: p.interval_index)
    return SimPointSelection(points=points, chosen_k=chosen_k,
                             interval_size=profile.interval_size,
                             num_intervals=profile.num_intervals,
                             total_instructions=profile.total_instructions,
                             bic_scores=scores,
                             labels=tuple(best.labels.tolist()),
                             coverage_target=coverage)
