"""Random projection of basic-block vectors.

SimPoint 3.0 projects the (very wide, sparse) BBV matrix down to a small
dimension — 15 by default — before clustering.  The Johnson-Lindenstrauss
lemma guarantees pairwise distances are approximately preserved, and the
clustering cost drops from O(blocks) to O(15) per distance.

The projection matrix entries are drawn i.i.d. uniform in [-1, 1] from a
seeded generator, matching the SimPoint release.  The stream is owned
in-repo (:mod:`.pcg64`) and pinned to numpy's ``Generator`` algorithms as
of numpy 2.4, so the pinned selections do not move with numpy releases.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimPointError
from repro.simpoint.pcg64 import Generator
from repro.simpoint.simpoints import DEFAULT_DIMENSIONS


def projection_matrix(num_blocks: int, dimensions: int = DEFAULT_DIMENSIONS,
                      seed: int = 0) -> np.ndarray:
    """A (num_blocks x dimensions) random projection matrix."""
    if num_blocks <= 0:
        raise SimPointError("projection needs at least one block")
    if dimensions <= 0:
        raise SimPointError("projection dimension must be positive")
    draws = Generator(seed).uniform(-1.0, 1.0, num_blocks * dimensions)
    return np.array(draws).reshape(num_blocks, dimensions)


def project(matrix: np.ndarray, dimensions: int = DEFAULT_DIMENSIONS,
            seed: int = 0) -> np.ndarray:
    """Project a BBV matrix (intervals x blocks) to ``dimensions`` columns.

    If the matrix is already narrower than ``dimensions`` it is returned
    unchanged — projecting *up* would only add noise.
    """
    if matrix.ndim != 2:
        raise SimPointError("expected a 2-D interval-by-block matrix")
    if matrix.shape[1] <= dimensions:
        return matrix.astype(float)
    basis = projection_matrix(matrix.shape[1], dimensions, seed)
    return matrix @ basis
