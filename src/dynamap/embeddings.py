"""Diffusion maps, common embeddings, and rotations onto a shared vertex set."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .distances import diffusion_distance_matrix, gram_matrix
from .exceptions import CorrespondenceError, InputError
from .operators import (
    SpectralDecomposition, _check_count, _check_shared_set, _check_t, apply_sign_convention,
    truncate,
)

BASIS_ORTHONORMALITY_TOL = 1e-8


def diffusion_map(dec: SpectralDecomposition, t: int) -> np.ndarray:
    """Embed every sample as (lambda_i^t psi_i(x))_i: row x holds its diffusion coordinates."""
    return dec.eigenfunctions * dec.eigenvalues[None, :] ** _check_t(t)


def common_embedding(
    family: Sequence[SpectralDecomposition],
    gamma: int,
    t: int,
) -> list[np.ndarray]:
    """Rotate every member's diffusion map into the base member's coordinates.

    The rotation is the cross Gram matrix gram_matrix(base, member): row i
    holds the inner products of base eigenfunction i against every member
    eigenfunction. After rotation, Euclidean distances between any two
    members' rows realize the cross-parameter diffusion distance (exactly at
    full rank).
    """
    base = family[_check_count("gamma", gamma, 0, len(family) - 1)]
    if any(dec.n != base.n for dec in family):
        raise CorrespondenceError("family members must share the sample set")
    return [diffusion_map(dec, t) @ gram_matrix(base, dec).T for dec in family]


def truncation_residuals(
    family: Sequence[SpectralDecomposition],
    gamma: int,
    t: int,
    rank: int,
) -> np.ndarray:
    """Per-member residual of a rank-truncated common embedding on a probe set.

    For each member, reports the largest discrepancy between the truncated
    rotated Euclidean distance and the exact full-rank diffusion distance over
    16 x 16 seeded point pairs against the base member. A small residual
    certifies that the base parameter retained enough eigenfunctions.
    """
    truncated = [truncate(dec, rank) for dec in family]
    rotated = common_embedding(truncated, gamma, t)
    rng = np.random.default_rng(0)
    n = family[gamma].n
    take = min(16, n)
    rows = rng.choice(n, size=take, replace=False)
    cols = rng.choice(n, size=take, replace=False)
    residuals = np.zeros(len(family))
    for idx, dec in enumerate(family):
        exact = diffusion_distance_matrix(dec, family[gamma], t)[np.ix_(rows, cols)]
        diff = rotated[idx][rows, None, :] - rotated[gamma][None, cols, :]
        approx = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        residuals[idx] = float(np.max(np.abs(approx - exact)))
    return residuals


def canonical_subgraph_basis(size: int) -> np.ndarray:
    """Indicator basis scaled by sqrt(size); orthonormal under the 1/size measure."""
    size = _check_count("size", size, 1)
    return np.sqrt(size) * np.eye(size)


def reference_subgraph_basis(
    dec_ref: SpectralDecomposition,
    s_indices: Sequence[int],
) -> np.ndarray:
    """Reference eigenfunctions restricted to S and re-orthonormalized.

    Restriction breaks orthonormality, so the columns are re-orthonormalized
    (QR) under the renormalized empirical measure on S and sign-fixed for
    reproducibility.
    """
    idx = _check_shared_set("s_indices", s_indices, dec_ref.n)
    if dec_ref.rank < idx.size:
        raise InputError(
            f"reference decomposition must carry at least |S|={idx.size} eigenfunctions"
        )
    restricted = dec_ref.eigenfunctions[idx, : idx.size]
    q, _ = np.linalg.qr(restricted)
    return apply_sign_convention(np.sqrt(idx.size) * q)


def subgraph_rotation(
    dec: SpectralDecomposition,
    s_indices: Sequence[int],
    basis: np.ndarray,
) -> np.ndarray:
    """Rotation of a member's embedding onto an orthonormal basis of the shared set S.

    R[i, j] = (1/|S|) sum_{s in S} e_i(s) psi_j(s), with basis column i holding
    e_i evaluated on S. Rotated embeddings of two graphs then realize the
    subgraph diffusion distance at full available rank.
    """
    idx = _check_shared_set("s_indices", s_indices, dec.n)
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (idx.size, idx.size):
        raise InputError(f"basis must be {idx.size} x {idx.size}, got {basis.shape}")
    defect = np.max(np.abs(basis.T @ basis / idx.size - np.eye(idx.size)))
    if defect > BASIS_ORTHONORMALITY_TOL:
        raise InputError(
            f"basis not orthonormal under the empirical measure on S (defect {defect:.3e})"
        )
    return basis.T @ dec.eigenfunctions[idx, :] / idx.size
