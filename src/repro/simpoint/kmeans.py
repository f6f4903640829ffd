"""k-means clustering, from scratch, as used by SimPoint 3.0.

Lloyd's algorithm with k-means++ seeding and a fixed random seed for
reproducibility.  Supports per-sample weights so longer intervals can count
proportionally (the profiler's trailing interval may be short).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimPointError
from repro.simpoint.pcg64 import Generator


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    k: int
    labels: np.ndarray          # cluster index per sample
    centroids: np.ndarray       # (k x dims)
    inertia: float              # weighted sum of squared distances
    iterations: int

    def cluster_sizes(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Total (optionally weighted) membership of each cluster."""
        if weights is None:
            weights = np.ones(len(self.labels))
        sizes = np.zeros(self.k)
        np.add.at(sizes, self.labels, weights)
        return sizes


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(samples x k) matrix of squared Euclidean distances."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2
    x_sq = np.einsum("ij,ij->i", data, data)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = data @ centroids.T
    return np.maximum(x_sq - 2.0 * cross + c_sq, 0.0)


def _kmeanspp_init(data: np.ndarray, k: int,
                   rng: Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    samples = data.shape[0]
    centroids = np.empty((k, data.shape[1]))
    first = rng.integers(samples)
    centroids[0] = data[first]
    closest = _squared_distances(data, centroids[:1]).ravel()
    for index in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; copy one.
            centroids[index] = data[rng.integers(samples)]
            continue
        probabilities = closest / total
        choice = rng.choice(samples, probabilities.tolist())
        centroids[index] = data[choice]
        new_distance = _squared_distances(data, centroids[index:index + 1])
        closest = np.minimum(closest, new_distance.ravel())
    return centroids


def kmeans(data: np.ndarray, k: int, weights: np.ndarray | None = None,
           seed: int = 0, max_iterations: int = 100,
           tolerance: float = 1e-8) -> KMeansResult:
    """Cluster ``data`` (samples x dims) into ``k`` clusters.

    Empty clusters are re-seeded with the point farthest from its centroid,
    so the result always has exactly ``k`` non-degenerate clusters when the
    data has at least ``k`` distinct points.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise SimPointError("kmeans expects a 2-D matrix")
    samples = data.shape[0]
    if not 1 <= k <= samples:
        raise SimPointError(f"k={k} out of range for {samples} samples")
    if weights is None:
        weights = np.ones(samples)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (samples,):
            raise SimPointError("weights must have one entry per sample")

    rng = Generator(seed)
    centroids = _kmeanspp_init(data, k, rng)
    labels = np.zeros(samples, dtype=int)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _squared_distances(data, centroids)
        labels = distances.argmin(axis=1)
        inertia = float((weights
                         * distances[np.arange(samples), labels]).sum())
        # Recompute centroids as weighted means.
        for cluster in range(k):
            mask = labels == cluster
            mass = weights[mask].sum()
            if mass > 0.0:
                centroids[cluster] = (
                    (weights[mask, None] * data[mask]).sum(axis=0) / mass)
            else:
                # Re-seed an empty cluster on the worst-fit point.
                worst = distances[np.arange(samples), labels].argmax()
                centroids[cluster] = data[worst]
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            previous_inertia = inertia
            break
        previous_inertia = inertia
    return KMeansResult(k=k, labels=labels, centroids=centroids,
                        inertia=previous_inertia, iterations=iterations)
