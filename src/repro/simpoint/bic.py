"""Bayesian Information Criterion scoring for k selection.

SimPoint 3.0 runs k-means for each candidate k and keeps the smallest k
whose BIC reaches a fixed fraction (default 0.9) of the best BIC observed.
The score follows the X-means formulation (Pelleg & Moore, 2000): a
spherical-Gaussian log-likelihood of the clustering minus a model-size
penalty of ``(p / 2) * log(R)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimPointError
from repro.simpoint.kmeans import KMeansResult
from repro.simpoint.simpoints import DEFAULT_BIC_THRESHOLD


def bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """BIC of a k-means clustering of ``data`` (higher is better)."""
    samples, dims = data.shape
    k = result.k
    if samples <= k:
        # Degenerate: every point its own cluster; maximally penalized.
        return -math.inf
    # Pooled spherical variance (maximum-likelihood estimate).
    variance = result.inertia / (dims * (samples - k))
    if variance <= 0.0:
        variance = 1e-12
    sizes = np.bincount(result.labels, minlength=k).astype(float)
    log_likelihood = 0.0
    for cluster in range(k):
        size = sizes[cluster]
        if size <= 0.0:
            continue
        log_likelihood += (
            size * math.log(size / samples)
            - size * dims / 2.0 * math.log(2.0 * math.pi * variance)
            - (size - 1.0) * dims / 2.0
        )
    parameters = k * (dims + 1.0)
    return log_likelihood - parameters / 2.0 * math.log(samples)


def choose_k(scores: dict[int, float],
             threshold: float = DEFAULT_BIC_THRESHOLD) -> int:
    """The smallest k whose BIC reaches ``threshold`` of the best score.

    Scores are shifted to be non-negative first (BIC values are usually
    negative), matching the SimPoint release's normalization.
    """
    if not scores:
        raise SimPointError("no BIC scores to choose from")
    finite = {k: s for k, s in scores.items() if math.isfinite(s)}
    if not finite:
        return min(scores)
    low = min(finite.values())
    high = max(finite.values())
    if high == low:
        return min(finite)
    for k in sorted(finite):
        normalized = (finite[k] - low) / (high - low)
        if normalized >= threshold:
            return k
    return max(finite)  # pragma: no cover - threshold <= 1 always returns
