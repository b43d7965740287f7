import tracemalloc

import numpy as np
import pytest

from dynamap import (
    PointCloud,
    diffusion_matrix,
    gaussian_kernel,
    spectral_decomposition,
)
from dynamap.kernels import KernelMatrix, squared_distances


def random_kernel(n, rng):
    """Random symmetric kernel with entries in (0, 1] and unit diagonal."""
    vals = rng.uniform(0.05, 1.0, (n, n))
    vals = np.triu(vals, 1)
    vals = vals + vals.T
    np.fill_diagonal(vals, 1.0)
    return KernelMatrix(vals)


def transition_matrix(kernel):
    """Row-stochastic transition matrix D^{-1} K; shares eigenvalues with the
    symmetric diffusion matrix."""
    return kernel.values / kernel.values.sum(axis=1)[:, None]


def graph_laplacian(matrix):
    """Graph Laplacian (I - A) / 2; eigenvalues (1 - eig(A)) / 2 lie in [0, 1]."""
    return 0.5 * (np.eye(matrix.n) - matrix.values)


def random_instance(n, seed, rank=None):
    """(DiffusionMatrix, SpectralDecomposition) from a random kernel."""
    rng = np.random.default_rng(seed)
    mat = diffusion_matrix(random_kernel(n, rng))
    return mat, spectral_decomposition(mat, rank if rank is not None else n)


def gaussian_instance(n, seed, d=3, epsilon=1.5, rank=None):
    """(DiffusionMatrix, SpectralDecomposition) from Gaussian-kernel points."""
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(n, d)))
    mat = diffusion_matrix(gaussian_kernel(cloud, epsilon))
    return mat, spectral_decomposition(mat, rank if rank is not None else n)


def peak_bytes(fn):
    """(fn(), the tracemalloc peak of that one call in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def near_identity_kernel():
    """Gaussian kernel on 300 points in 3-D at a quarter of the median distance.

    lambda2 = 0.99998 and lambda2 - lambda3 = 2.4e-4: the top of the spectrum
    clusters so tightly that Lanczos stalls within its restart cap.
    """
    rng = np.random.default_rng(0)
    sq = squared_distances(rng.normal(size=(300, 3)))
    median = np.median(sq[np.triu_indices(300, k=1)])
    vals = np.exp(-sq / (median / 16.0))
    np.fill_diagonal(vals, 1.0)
    return KernelMatrix(vals)


def refuse_dense_solves(monkeypatch):
    """From here on, fail every dense eigensolve: only the Lanczos route may run."""
    import dynamap.kernels as kernels_mod

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(kernels_mod, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)


def counting_eigsh(monkeypatch):
    """Wrap scipy's eigsh to count matrix-vector products and non-convergences."""
    import scipy.sparse.linalg as ssl

    real = ssl.eigsh
    stats = {"matvecs": 0, "stalls": 0}

    def counting(values, **kwargs):
        def matvec(x):
            stats["matvecs"] += 1
            return values @ x

        op = ssl.LinearOperator(values.shape, matvec=matvec, dtype=float)
        try:
            return real(op, **kwargs)
        except ssl.ArpackNoConvergence:
            stats["stalls"] += 1
            raise

    monkeypatch.setattr(ssl, "eigsh", counting)
    return stats
