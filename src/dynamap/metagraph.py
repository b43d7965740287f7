"""Second-level diffusion analysis: graph-of-graphs and historical embeddings."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    CorrespondenceError,
    DegeneracyError,
    InputError,
    NumericalError,
)
from .kernels import KernelMatrix
from .operators import (
    DiffusionMatrix, SpectralDecomposition, _check_t, diffusion_matrix, spectral_decomposition
)

MEDIAN = "median"

EXPONENTIAL = "exponential"
INNER_PRODUCT = "inner_product"

NEGATIVE_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class MetaGraph:
    """Gaussian kernel over a family of graphs built from global diffusion distances."""

    kernel: np.ndarray
    epsilon: float

    @property
    def size(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True)
class HistoricalGraph:
    """Kernel over all (point, parameter) pairs; index = parameter * n + point."""

    kernel: np.ndarray
    n: int

    @property
    def n_params(self) -> int:
        return self.kernel.shape[0] // self.n


def meta_kernel(family_distances: np.ndarray, epsilon: float | str = MEDIAN) -> MetaGraph:
    """Gaussian weights exp(-dist^2 / epsilon^2) over a family's global distances.

    epsilon=MEDIAN resolves the bandwidth to the median off-diagonal distance.
    """
    dist = np.asarray(family_distances, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise InputError("family distance matrix must be square")
    # NaN slips past the comparisons below into a NaN kernel, and inf makes
    # the median bandwidth inf
    if not np.all(np.isfinite(dist)):
        raise InputError("family distance matrix must be finite")
    if np.max(np.abs(dist - dist.T)) > 1e-10:
        raise InputError("family distance matrix must be symmetric")
    if np.max(np.abs(np.diag(dist))) > 1e-12:
        raise InputError("family distance matrix must have a zero diagonal")
    if isinstance(epsilon, str):
        if epsilon != MEDIAN:
            raise InputError(f"epsilon must be a positive number or '{MEDIAN}'")
        offdiag = dist[np.triu_indices(dist.shape[0], k=1)]
        eps = float(np.median(offdiag)) if offdiag.size else 0.0
        if eps <= 0.0:
            raise DegeneracyError("median bandwidth degenerate: all family distances are zero")
    else:
        eps = float(epsilon)
        if not eps > 0.0:
            raise InputError(f"epsilon must be positive, got {epsilon}")
    kern = np.exp(-(dist * dist) / (eps * eps))
    # mirror the upper triangle: roundoff asymmetry in the input distances
    # must not leak into the kernel
    kern = np.triu(kern, 1)
    kern = kern + kern.T
    np.fill_diagonal(kern, 1.0)
    return MetaGraph(kernel=kern, epsilon=eps)


def _timescaled_coords(dec: SpectralDecomposition, s: float) -> np.ndarray:
    """Coordinates lambda^s psi; real (non-integer) powers demand nonnegative spectra."""
    lam = dec.eigenvalues
    if not 0.0 < float(s) < np.inf:
        raise InputError(f"diffusion time s must be finite and positive, got {s}")
    if float(s).is_integer():
        scale = lam ** int(s)
    else:
        if float(lam.min()) < -NEGATIVE_EIGENVALUE_TOL:
            raise NumericalError(
                f"eigenvalue {lam.min():.3e} is negative beyond roundoff; "
                "cannot apply a real power"
            )
        scale = np.clip(lam, 0.0, None) ** float(s)
    return dec.eigenfunctions * scale[None, :]


def meta_embedding(meta: MetaGraph, s: float, dims: int) -> np.ndarray:
    """Diffusion coordinates of the graph-of-graphs at meta diffusion time s.

    The trivial top eigenpair is kept: its coordinate is nearly constant.
    """
    if not 1 <= dims <= meta.size:
        raise InputError(f"dims must lie in [1, {meta.size}], got {dims}")
    return _timescaled_coords(meta_decomposition(meta, dims), s)


def meta_decomposition(meta: MetaGraph, rank: int) -> SpectralDecomposition:
    """Spectral decomposition of the meta diffusion matrix."""
    return spectral_decomposition(diffusion_matrix(KernelMatrix(meta.kernel)), rank)


def _kernel_block(
    pow_a: np.ndarray, pow_b: np.ndarray, variant: str, epsilon: float | None
) -> np.ndarray:
    """Historical kernel between every row of two t-step diffusion matrices
    (symmetric factors, so pow_a @ pow_b holds the row inner products), built
    in place with at most one n x n temporary."""
    n = pow_a.shape[0]
    block = pow_a @ pow_b
    if variant == INNER_PRODUCT:
        block *= n
        return block
    # exp(-sqrt(n (|a|^2 + |b|^2 - 2 a.b)) / epsilon), squared distances clamped at 0
    dist = np.add.outer(np.einsum("ik,ik->i", pow_a, pow_a), np.einsum("ik,ik->i", pow_b, pow_b))
    block *= 2.0
    dist -= block
    dist *= n
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    dist /= -epsilon
    return np.exp(dist, out=dist)


def historical_kernel(
    family: Sequence[DiffusionMatrix],
    t: int,
    epsilon: float | None = None,
    variant: str = EXPONENTIAL,
) -> HistoricalGraph:
    """Kernel over all (point, parameter) pairs of a family sharing one sample set.

    EXPONENTIAL uses exp(-D / epsilon) with the distance itself (not squared)
    in the exponent and needs epsilon > 0; INNER_PRODUCT uses the empirical
    inner products of the t-step diffusion rows,
    (1/n) sum_u (n A_a^t[x,u]) (n A_b^t[y,u]), and takes no epsilon.
    """
    if not family:
        raise InputError("family must be nonempty")
    n = family[0].n
    if any(mat.n != n for mat in family):
        raise CorrespondenceError("family members must share the sample set")
    if variant not in (EXPONENTIAL, INNER_PRODUCT):
        raise InputError(f"unknown variant {variant!r}")
    if variant == EXPONENTIAL and (epsilon is None or not epsilon > 0.0):
        raise InputError("the exponential variant needs a positive epsilon")
    if variant == INNER_PRODUCT and epsilon is not None:
        raise InputError(f"the inner-product variant takes no epsilon, got {epsilon}")
    t = _check_t(t)

    powers = [np.linalg.matrix_power(mat.values, t) for mat in family]
    count = len(family)
    big = np.empty((count * n, count * n))
    for a in range(count):
        rows = slice(a * n, (a + 1) * n)
        for b in range(a, count):
            cols = slice(b * n, (b + 1) * n)
            big[rows, cols] = _kernel_block(powers[a], powers[b], variant, epsilon)
            # the lower triangle mirrors the upper one, so the kernel is
            # symmetric bitwise: an off-diagonal block's transpose fills its
            # mirror block, a diagonal block mirrors its own upper triangle
            if a == b:
                tile = big[rows, cols]
                for i in range(1, n):
                    tile[i, :i] = tile[:i, i]
            else:
                big[cols, rows] = big[rows, cols].T
    if variant == EXPONENTIAL:
        np.fill_diagonal(big, 1.0)
    return HistoricalGraph(kernel=big, n=n)


def historical_embedding(
    hist: HistoricalGraph,
    s: float,
    dims: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion map of the historical graph plus every point's trajectory.

    coords has one row per (point, parameter) pair, index parameter * n +
    point. trajectories[x, alpha] is the embedded image of point x at the
    family's alpha-th parameter: an (n, n_params, dims) view of coords.
    """
    total = hist.n * hist.n_params
    if not 1 <= dims <= total:
        raise InputError(f"dims must lie in [1, {total}], got {dims}")
    dec = spectral_decomposition(diffusion_matrix(KernelMatrix(hist.kernel)), dims)
    coords = _timescaled_coords(dec, s)
    return coords, coords.reshape(hist.n_params, hist.n, dims).swapaxes(0, 1)
