"""Cross-parameter diffusion distances: pointwise, global, and subgraph.

Spectral routes work on :class:`~dynamap.operators.SpectralDecomposition` pairs
at a diffusion time t (math.inf gives the large-t limit); direct routes work on
matrix powers alone and serve as independent oracles for the spectral formulas.

Empirical scaling: with the empirical measure (weight 1/n per sample) the
t-step kernel evaluated at sample points equals n * A^t, so the quadrature of
the squared row difference carries a single factor n; this is the scaling
under which the sampled distance converges to its population value. Sampled
global distances need no scaling at all: the 1/n^2 quadrature of the double
integral cancels the n^2 from the kernel evaluation.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import (
    ConnectivityError,
    CorrespondenceError,
    InputError,
    NumericalError,
)
from .operators import (
    DiffusionMatrix, SpectralDecomposition, _check_index, _check_shared_set, _check_t,
    kernel_power_row,
)

GRAM_ENTRY_SLACK = 1e-8
NEGATIVE_SQ_TOL = 1e-12
CONNECTIVITY_GAP = 1e-9
# three-term squared distances below this fraction of their scale are
# recomputed difference-first, where cancellation cannot occur
STABLE_REL = 1e-9
# entries recomputed per matrix product: an n x REFINE_BLOCK temporary
REFINE_BLOCK = 256


def gram_matrix(dec_a: SpectralDecomposition, dec_b: SpectralDecomposition) -> np.ndarray:
    """Cross-parameter Gram matrix G[i,j] = (1/n) sum_x psi_a^(i)(x) psi_b^(j)(x).

    Entries lie in [-1, 1] up to roundoff; at full rank G is orthogonal.
    """
    _check_sizes(dec_a.n, dec_b.n)
    gram = dec_a.eigenfunctions.T @ dec_b.eigenfunctions / dec_a.n
    if np.max(np.abs(gram)) > 1.0 + GRAM_ENTRY_SLACK:
        raise NumericalError("gram entries exceed [-1, 1] beyond roundoff")
    return gram


def _check_time(t) -> int | float:
    """A diffusion time: a positive integer, or math.inf for the large-t limit."""
    return t if t == math.inf else _check_t(t)


def _clamp_sq(d2: float) -> float:
    # squared distances are nonnegative in exact arithmetic; only roundoff
    # negatives within NEGATIVE_SQ_TOL are forgiven
    if d2 < 0.0:
        if d2 < -NEGATIVE_SQ_TOL:
            raise NumericalError(f"squared distance {d2:.3e} below roundoff tolerance")
        return 0.0
    return d2


def _check_sizes(n_a: int, n_b: int) -> None:
    if n_a != n_b:
        raise CorrespondenceError(f"size mismatch: n={n_a} vs n={n_b}")


def _check_connected(*decs: SpectralDecomposition) -> None:
    for dec in decs:
        if dec.rank < 2:
            raise InputError("connectivity check needs at least two eigenpairs")
        if dec.eigenvalues[1] > 1.0 - CONNECTIVITY_GAP:
            raise ConnectivityError(
                f"second eigenvalue {dec.eigenvalues[1]:.12g} too close to 1; "
                "graph is disconnected or nearly so"
            )


def _squared_distances(dec_a, dec_b, t, pairs=None) -> np.ndarray:
    """Three-term squared diffusion distances |u|^2 + |v|^2 - 2 u G v, where
    u = la^t psi_a[i] and v = lb^t psi_b[j] are diffusion coordinates.

    pairs = (i, j) pairs point i[k] under a with point j[k] under b; None
    takes every i against every j (n x n). t is a checked positive integer,
    or math.inf: then only the top eigenfunctions survive, with weight 1, and
    G is their inner product g, the closed form in diffusion_distance.
    Entries below STABLE_REL of their scale |u|^2 + |v|^2 are recomputed as
    the empirical norm of psi_a u - psi_b v, REFINE_BLOCK per matrix product,
    so every entry is nonnegative and accurate in absolute terms.
    """
    _check_sizes(dec_a.n, dec_b.n)
    if t == math.inf:
        _check_connected(dec_a, dec_b)
        psi_a = wa = dec_a.eigenfunctions[:, :1]
        psi_b = wb = dec_b.eigenfunctions[:, :1]
        gram = psi_a.T @ psi_b / dec_a.n
    else:
        psi_a, psi_b, gram = dec_a.eigenfunctions, dec_b.eigenfunctions, gram_matrix(dec_a, dec_b)
        wa = psi_a * dec_a.eigenvalues**t
        wb = psi_b * dec_b.eigenvalues**t
    n = dec_a.n
    if pairs is None:
        scale = np.einsum("ik,ik->i", wa, wa)[:, None] + np.einsum("ik,ik->i", wb, wb)[None, :]
        d2 = scale - 2.0 * (wa @ gram) @ wb.T
    else:
        wa = wa[_check_index("i", pairs[0], n)]
        wb = wb[_check_index("j", pairs[1], n)]
        scale = np.einsum("ik,ik->i", wa, wa) + np.einsum("ik,ik->i", wb, wb)
        d2 = scale - 2.0 * np.einsum("ik,ik->i", wa @ gram, wb)
    flagged = np.nonzero(d2 < STABLE_REL * scale)
    # a paired result has one index array, naming a row of wa and of wb alike
    refined = np.empty(flagged[0].size)
    for start in range(0, refined.size, REFINE_BLOCK):
        block = slice(start, start + REFINE_BLOCK)
        diff = psi_a @ wa[flagged[0][block]].T - psi_b @ wb[flagged[-1][block]].T
        refined[block] = np.einsum("xk,xk->k", diff, diff) / n
    d2[flagged] = refined
    return d2


def diffusion_distance(
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    i: int,
    j: int,
    t: int | float,
) -> float:
    """Diffusion distance at time t between point i under kernel a and point j under kernel b.

    Three-term spectral form of the squared distance:
    sum_k la_k^2t pa_k(i)^2 + sum_l lb_l^2t pb_l(j)^2
    - 2 sum_{k,l} la_k^t lb_l^t pa_k(i) pb_l(j) G[k,l].
    Near-zero values, where the three terms cancel, are recomputed
    difference-first so the result is accurate in absolute terms.

    t = math.inf gives the large-t limit of connected graphs. Only the top
    eigenfunctions (normalized square roots of the densities) enter, so the
    limit needs no further diagonalization:
    D^2 = (pa(i) - pb(j))^2 + pa(i) pb(j) * mean_x (pa(x) - pb(x))^2,
    the pointwise density gap plus a term carrying the global density change.
    """
    return float(np.sqrt(_squared_distances(dec_a, dec_b, _check_time(t), pairs=([i], [j]))[0]))


def diffusion_distance_map(
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    t: int | float,
) -> np.ndarray:
    """Corresponding-point distances D(x_i under a, x_i under b) for every sample i."""
    every = np.arange(dec_a.n)
    return np.sqrt(_squared_distances(dec_a, dec_b, _check_time(t), pairs=(every, every)))


def diffusion_distance_matrix(
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    t: int | float,
) -> np.ndarray:
    """All-pairs distances D(x_i under a, y_j under b) as an n x n array."""
    return np.sqrt(_squared_distances(dec_a, dec_b, _check_time(t)))


def direct_diffusion_distance(
    mat_a: DiffusionMatrix,
    mat_b: DiffusionMatrix,
    i: int,
    j: int,
    t: int,
) -> float:
    """Oracle route: D^2 = n * sum_k (A_a^t[i,k] - A_b^t[j,k])^2 via matrix powers only."""
    t = _check_t(t)
    _check_sizes(mat_a.n, mat_b.n)
    _check_index("j", j, mat_b.n)  # kernel_power_row would name it i
    diff = kernel_power_row(mat_a, t, i) - kernel_power_row(mat_b, t, j)
    return float(np.sqrt(_clamp_sq(mat_a.n * float(diff @ diff))))


def global_diffusion_distance(
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    t: int | float,
) -> float:
    """Whole-graph distance from the spectra and the cross Gram matrix.

    At full rank the paired form sum_{i,j} (la_i^t - lb_j^t)^2 G[i,j]^2 is
    exact. Truncated decompositions add the Bessel defects of the Gram rows
    and columns, which reproduces the equivalent three-term form
    sum la^2t + sum lb^2t - 2 sum la^t lb^t G^2 without cancellation; the
    value degrades gracefully as the discarded tail only shrinks the sums.

    t = math.inf gives the large-t limit of connected graphs,
    sqrt(2 (1 - g^2)) with g the inner product of the top eigenfunctions.
    """
    t = _check_time(t)
    if t == math.inf:
        _check_connected(dec_a, dec_b)
        _check_sizes(dec_a.n, dec_b.n)
        g = float(dec_a.eigenfunctions[:, 0] @ dec_b.eigenfunctions[:, 0]) / dec_a.n
        return float(np.sqrt(_clamp_sq(2.0 * (1.0 - g * g))))
    la = dec_a.eigenvalues**t
    lb = dec_b.eigenvalues**t
    gsq = gram_matrix(dec_a, dec_b) ** 2
    d2 = float(((la[:, None] - lb[None, :]) ** 2 * gsq).sum())
    # Bessel defects below roundoff are complete rows, not truncation
    row_defect = 1.0 - gsq.sum(axis=1)
    col_defect = 1.0 - gsq.sum(axis=0)
    row_defect[row_defect < 1e-12] = 0.0
    col_defect[col_defect < 1e-12] = 0.0
    d2 += float(la**2 @ row_defect + lb**2 @ col_defect)
    return float(np.sqrt(_clamp_sq(d2)))


def direct_global_distance(mat_a: DiffusionMatrix, mat_b: DiffusionMatrix, t: int) -> float:
    """Oracle route: Frobenius norm of A_a^t - A_b^t by direct matrix powers.

    The 1/n^2 empirical quadrature of the double integral cancels the n^2 from
    evaluating the t-step kernels at sample points, so no scaling is needed.
    """
    t = _check_t(t)
    _check_sizes(mat_a.n, mat_b.n)
    pow_a = np.linalg.matrix_power(mat_a.values, t)
    pow_b = np.linalg.matrix_power(mat_b.values, t)
    return float(np.linalg.norm(pow_a - pow_b, ord="fro"))


def global_distance_matrix(decs: Sequence[SpectralDecomposition], t: int | float) -> np.ndarray:
    """Pairwise global distances for a family, symmetric with an exactly zero diagonal.

    t = math.inf gives the large-t limits, which need no Gram matrix.
    """
    t = _check_time(t)
    count = len(decs)
    out = np.zeros((count, count))
    for a in range(count):
        for b in range(a + 1, count):
            dist = global_diffusion_distance(decs[a], decs[b], t)
            out[a, b] = dist
            out[b, a] = dist
    return out


def subgraph_diffusion_distance(
    mat_a: DiffusionMatrix,
    mat_b: DiffusionMatrix,
    common_indices_a: Sequence[int],
    common_indices_b: Sequence[int],
    i: int,
    j: int,
    t: int,
) -> float:
    """Diffusion distance restricted to a shared vertex set S of two graphs.

    The two index lists identify the same points S in each graph's ordering;
    the graphs may have different sizes. Quadrature uses the renormalized
    empirical measure on S (weight 1/|S| per point), so S = X with equal sizes
    recovers the standard distance.
    """
    t = _check_t(t)
    idx_a = _check_shared_set("common_indices_a", common_indices_a, mat_a.n)
    idx_b = _check_shared_set("common_indices_b", common_indices_b, mat_b.n)
    if idx_a.size != idx_b.size:
        raise InputError("the two index lists must be of equal length")
    _check_index("j", j, mat_b.n)  # kernel_power_row would name it i
    row_a = mat_a.n * kernel_power_row(mat_a, t, i)
    row_b = mat_b.n * kernel_power_row(mat_b, t, j)
    diff = row_a[idx_a] - row_b[idx_b]
    return float(np.sqrt(_clamp_sq(float(diff @ diff) / idx_a.size)))
