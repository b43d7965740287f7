"""Symmetric diffusion matrices and truncated spectral decompositions.

Eigenfunctions are normalized against the empirical measure (1/n per sample):
(1/n) * psi.T @ psi = I. With this scaling the spectral distance formulas in
:mod:`dynamap.distances` apply verbatim to sampled data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError, NumericalError
from .kernels import DiffusionMatrix, KernelMatrix, _degree_normalized, _eigensolve

EIGENVALUE_SLACK = 1e-10
ORTHONORMALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class SpectralDecomposition:
    """Top eigenpairs of a diffusion matrix, eigenfunctions empirically orthonormal.

    eigenvalues are descending in (-1, 1]; eigenfunctions hold psi^(i) as
    column i, scaled by sqrt(n) relative to unit-Euclidean-norm eigenvectors so
    that (1/n) sum_x psi^(i)(x) psi^(j)(x) = delta_ij.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        psi = np.asarray(self.eigenfunctions, dtype=float)
        if (lam.ndim != 1 or lam.size == 0 or psi.ndim != 2 or psi.shape[0] == 0
                or psi.shape[1] != lam.shape[0]):
            raise InputError("need k >= 1 eigenvalues and an n x k eigenfunction matrix, n >= 1")
        for name, vals in (("eigenvalues", lam), ("eigenfunctions", psi)):
            if not np.isfinite(vals).all():  # NaN passes every comparison below
                raise InputError(f"{name} must be finite")
        if np.any(np.diff(lam) > 0.0):
            raise InputError("eigenvalues must be in descending order")
        if lam[0] > 1.0 + EIGENVALUE_SLACK or lam[-1] <= -1.0 - EIGENVALUE_SLACK:
            raise InputError("eigenvalues must lie in (-1, 1]")
        n = psi.shape[0]
        gram = psi.T @ psi / n
        if np.max(np.abs(gram - np.eye(lam.shape[0]))) > ORTHONORMALITY_TOL:
            raise InputError("eigenfunctions must be empirically orthonormal")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenfunctions", psi)

    @property
    def n(self) -> int:
        return self.eigenfunctions.shape[0]

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[0]


def diffusion_matrix(kernel: KernelMatrix) -> DiffusionMatrix:
    """Build A[i,j] = k[i,j] / sqrt(d_i d_j) with d_i the row sums of the kernel.

    The per-sample 1/n factors of the empirical kernel and degree matrices
    cancel, so A is scale-free in n; its spectral radius is 1.
    """
    vals = kernel.values.copy()  # the caller's kernel is left as it is
    _degree_normalized(vals)
    return DiffusionMatrix(vals)


def apply_sign_convention(psi: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest index, making decompositions reproducible.
    """
    pivots = np.argmax(np.abs(psi), axis=0)  # the first maximum of each column
    return psi * np.where(psi[pivots, np.arange(psi.shape[1])] < 0.0, -1.0, 1.0)


def spectral_decomposition(matrix: DiffusionMatrix, rank: int) -> SpectralDecomposition:
    """Top-`rank` eigenpairs of a diffusion matrix under empirical normalization.

    Two routes, chosen by size (see the LANCZOS_* constants in
    :mod:`dynamap.kernels`): from n = LANCZOS_MIN_N on, a rank of at most
    LANCZOS_MAX_RANK_FRACTION * n comes from seeded, restart-capped Lanczos,
    which computes only the top `rank` eigenpairs; otherwise, including the
    full rank the CLI asks for by default, and whenever Lanczos stalls, a dense
    symmetric solve of the whole spectrum is truncated. Both routes give the
    same eigenpairs to roundoff, up to a basis of any repeated eigenvalue.

    The eigenvalues the route computed are verified to lie within roundoff of
    (-1, 1] (the whole spectrum on the dense route, the top `rank` on the
    Lanczos route) and clipped to [-1, 1]. The bottom of the spectrum needs no
    check: the kernel (a KernelMatrix, or a calibration probe) is nonnegative
    with a positive diagonal, so by Perron-Frobenius the spectrum of
    D^{-1/2} K D^{-1/2} lies in (-1, 1]. Every kept eigenpair must also pass
    the RESIDUAL_TOL residual check, and the eigenfunctions the
    ORTHONORMALITY_TOL check and the sign convention.
    """
    n = matrix.n
    rank = _check_count("rank", rank, 1, n)
    lam, vec = _eigensolve(matrix.values, rank, vectors=True)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    if lam[0] > 1.0 + EIGENVALUE_SLACK or lam[-1] <= -1.0 - EIGENVALUE_SLACK:
        raise NumericalError(
            f"eigenvalues outside (-1, 1]: range [{lam[-1]:.17g}, {lam[0]:.17g}]"
        )
    lam = np.clip(lam[:rank], -1.0, 1.0)
    vec = vec[:, :rank]
    residual = np.max(np.abs(matrix.values @ vec - vec * lam[None, :]))
    if residual > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    psi = apply_sign_convention(np.sqrt(n) * vec)
    return SpectralDecomposition(eigenvalues=lam, eigenfunctions=psi)


def truncate(dec: SpectralDecomposition, rank: int) -> SpectralDecomposition:
    """Keep the top `rank` eigenpairs of an existing decomposition."""
    rank = _check_count("rank", rank, 1, dec.rank)
    return replace(
        dec,
        eigenvalues=dec.eigenvalues[:rank],
        eigenfunctions=dec.eigenfunctions[:, :rank],
    )


def _check_count(name: str, value, lo: int, hi: float = math.inf) -> int:
    """An integer in [lo, hi] (a float such as 2.0, or a bool, is refused)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    if not lo <= value <= hi:
        raise InputError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return int(value)


def _check_t(t) -> int:
    """A diffusion time: a positive integer."""
    return _check_count("diffusion time", t, 1)


def _check_index(name: str, idx, n: int) -> np.ndarray:
    """Point indices: integers (a float such as 1.0, or a bool, is refused) in [0, n)."""
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise InputError(f"point index {name}={idx} is not an integer ({idx.dtype})")
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise InputError(f"point index {name}={bad[0]} out of range for n={n}")
    return idx


def _index_array(idx) -> np.ndarray:
    """idx as an array; a ragged list becomes a 1-d object array, which every check refuses."""
    try:
        return np.asarray(idx)
    except ValueError:  # numpy refuses inhomogeneous nesting
        return np.asarray(idx, dtype=object)


def _check_point(name: str, idx, n: int) -> int:
    """A single point index: a 0-d integer in [0, n) (`_check_index`)."""
    idx = _index_array(idx)
    if idx.ndim != 0:
        raise InputError(f"point index {name}={idx.tolist()} is not an integer: "
                         "a single point is a 0-d integer")
    return int(_check_index(name, idx, n))


def _check_shared_set(name: str, idx, n: int) -> np.ndarray:
    """A shared vertex set S: a nonempty 1-d list of distinct point indices,
    each an integer in [0, n) (`_check_index`); a repeat would count twice."""
    idx = _index_array(idx)
    if idx.size == 0:
        raise InputError(f"{name}: the common vertex set S must be nonempty")
    if idx.ndim != 1 or np.unique(_check_index(name, idx, n)).size != idx.size:
        raise InputError(f"{name} must be a 1-d list of distinct indices, got {idx.tolist()}")
    return idx


def kernel_power_row(matrix: DiffusionMatrix, t: int, i: int) -> np.ndarray:
    """Row i of A^t by repeated multiplication; the oracle path, no eigensolve."""
    t = _check_t(t)
    row = matrix.values[_check_point("i", i, matrix.n)].copy()
    for _ in range(t - 1):
        row = row @ matrix.values
    return row
