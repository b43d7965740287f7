"""Symmetric diffusion matrices and truncated spectral decompositions.

Eigenfunctions are normalized against the empirical measure (1/n per sample):
(1/n) * psi.T @ psi = I. With this scaling the spectral distance formulas in
:mod:`dynamap.distances` apply verbatim to sampled data.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DegeneracyError, InputError, NumericalError
from .kernels import KernelMatrix, _degree_normalized, _eigensolve, _exactly_symmetric

EIGENVALUE_SLACK = 1e-10
ORTHONORMALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class DiffusionMatrix:
    """Degree-symmetrized kernel K[i,j] / sqrt(d_i d_j) plus the sampled density d/n."""

    values: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise InputError("diffusion matrix must be square")
        if not _exactly_symmetric(vals):
            raise InputError("diffusion matrix must be exactly symmetric")
        if dens.shape != (vals.shape[0],):
            raise InputError("density must be an n-vector")
        if not np.all(dens > 0.0):
            raise DegeneracyError("density must be strictly positive")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "density", dens)

    @property
    def n(self) -> int:
        return self.values.shape[0]


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
        if lam.ndim != 1 or psi.ndim != 2 or psi.shape[1] != lam.shape[0]:
            raise InputError("need k eigenvalues and an n x k eigenfunction matrix")
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
    vals, deg = _degree_normalized(kernel.values)
    return DiffusionMatrix(values=vals, density=deg / kernel.n)


def apply_sign_convention(psi: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties resolve to the lowest index, making decompositions reproducible.
    """
    out = psi.copy()
    for col in range(out.shape[1]):
        pivot = int(np.argmax(np.abs(out[:, col])))
        if out[pivot, col] < 0.0:
            out[:, col] = -out[:, col]
    return out


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
    check for a diffusion matrix built from a KernelMatrix: the kernel is
    nonnegative with a positive diagonal, so by Perron-Frobenius the spectrum
    of D^{-1/2} K D^{-1/2} lies in (-1, 1]. Every kept eigenpair must also pass
    the RESIDUAL_TOL residual check, and the eigenfunctions the
    ORTHONORMALITY_TOL check and the sign convention.
    """
    n = matrix.n
    if not 1 <= rank <= n:
        raise InputError(f"rank must lie in [1, {n}], got {rank}")
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
    if not 1 <= rank <= dec.rank:
        raise InputError(f"rank must lie in [1, {dec.rank}], got {rank}")
    return replace(
        dec,
        eigenvalues=dec.eigenvalues[:rank],
        eigenfunctions=dec.eigenfunctions[:, :rank],
    )


def _check_t(t) -> int:
    """A diffusion time: a positive integer (a float such as 2.0 is refused)."""
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise InputError(f"diffusion time must be a positive integer, got {t}")
    return int(t)


def kernel_power_row(matrix: DiffusionMatrix, t: int, i: int) -> np.ndarray:
    """Row i of A^t by repeated multiplication; the oracle path, no eigensolve."""
    t = _check_t(t)
    if not 0 <= i < matrix.n:
        raise InputError(f"row index {i} out of range for n={matrix.n}")
    row = matrix.values[i].copy()
    for _ in range(t - 1):
        row = row @ matrix.values
    return row
