"""Gaussian affinity kernels and bandwidth calibration to a target second eigenvalue."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh

from .exceptions import CalibrationError, DegeneracyError, InputError, NumericalError

# Bandwidth search parameters: the search starts at the median pairwise
# distance and walks toward the target in factor-2 steps, at most MAX_DOUBLINGS
# of them (a reach of median * 2^[-20, 20], about median * [1e-6, 1e6]), until
# lambda2 - target changes sign; Illinois regula falsi on log(epsilon) then
# refines the bracket for at most MAX_REFINEMENTS steps. When the walk finds no
# sign change (a non-monotone profile), a log-spaced grid of GRID_POINTS over
# the same reach looks for a crossing before giving up.
MAX_DOUBLINGS = 20
GRID_POINTS = 64
MAX_REFINEMENTS = 100

# Eigensolver routes. The pipelines need only a few top eigenpairs: lambda2 for
# calibration, rank 2-10 for the decompositions. Implicitly restarted Lanczos
# (ARPACK through scipy's eigsh) finds k of them in O(k n^2) per restart, where
# a dense LAPACK solve costs O(n^3). Measured on calibrated torus kernels on a
# 2-core x86 VM (OpenBLAS, 1 and 2 threads), Lanczos lambda2 breaks even with
# a dense solve at n ~ 128-150 and is 5-10x faster at n = 1000; a rank-k
# Lanczos decomposition beats a full dense eigh up to k ~ n/12 (n = 1000) to
# n/7 (n = 200). So Lanczos runs when n >= LANCZOS_MIN_N and
# k <= LANCZOS_MAX_RANK_FRACTION * n, and a dense solve of the whole spectrum
# runs otherwise (below n = 150 it costs no more than LAPACK's subset driver
# for the top two: 0.62 against 0.65 ms at n = 120, 1 thread).
# Each Lanczos run keeps LANCZOS_NCV basis vectors (the default 2k + 1 is
# 3-10x slower on clustered spectra), starts from a fixed seeded vector, so
# repeated calls give bit-identical results, and stops after about
# LANCZOS_MATVECS_PER_N * n matrix-vector products, the measured price of one
# dense solve. A run stalled at that cap (near-identity kernels, whose top
# eigenvalues crowd together near 1) falls back to the dense route, which
# gives the same answer to roundoff.
LANCZOS_MIN_N = 150
LANCZOS_MAX_RANK_FRACTION = 0.1
LANCZOS_NCV = 20
LANCZOS_MATVECS_PER_N = 0.25

# rows per block of the squared-distance pass: its two contiguous 64 x n
# scratch blocks take 1 KB per point, so they stay in a core's cache for n in
# the thousands, where whole n x n temporaries stream through memory once per
# coordinate (strided views into n x n buffers ran 1.7x slower at n = 1024)
ROW_BLOCK = 64


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of d-dimensional points, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InputError("points must be a 2-d array of shape (n, d)")
        if pts.shape[0] < 2:
            raise InputError("a point cloud needs at least two points")
        if pts.shape[1] < 1:
            raise InputError("points must have at least one coordinate")
        if not np.all(np.isfinite(pts)):
            raise InputError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric, strictly positive affinity matrix for one parameter instance."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise InputError("kernel must be a square matrix")
        if vals.shape[0] < 2:
            raise InputError("kernel must be at least 2x2")
        if not np.all(np.isfinite(vals)):
            raise InputError("kernel entries must be finite")
        if not np.array_equal(vals, vals.T):
            raise InputError("kernel must be exactly symmetric")
        # strictly positive in exact arithmetic; far pairs at tiny bandwidths
        # underflow to zero in floats, so only signs and the diagonal are checked
        if np.any(vals < 0.0):
            raise InputError("kernel entries must be positive")
        if not np.all(np.diag(vals) > 0.0):
            raise InputError("kernel diagonal must be strictly positive")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def squared_distances(points: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, exactly symmetric and exactly zero
    for duplicated points (accumulated per coordinate, no dot-product shortcut).

    The upper triangle is filled ROW_BLOCK rows at a time in two block-sized
    scratch buffers and mirrored into the lower one; every entry is still
    0 + d_0^2 + d_1^2 + ... in coordinate order, and fl(a - b)^2 = fl(b - a)^2,
    so the result equals the unblocked per-coordinate sum bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    cols = np.ascontiguousarray(pts.T)
    sq = np.empty((n, n))
    acc_buf = np.empty(min(ROW_BLOCK, n) * n)
    diff_buf = np.empty_like(acc_buf)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        shape = (r1 - r0, n - r0)
        acc = acc_buf[: shape[0] * shape[1]].reshape(shape)
        diff = diff_buf[: acc.size].reshape(shape)
        acc.fill(0.0)
        for col in cols:
            np.subtract(col[r0:r1, None], col[None, r0:], out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        sq[r0:r1, r0:] = acc
        sq[r1:, r0:r1] = acc[:, r1 - r0 :].T
    return sq


def _gaussian_values(
    sq: np.ndarray, epsilon: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-sq / epsilon^2) with an exact unit diagonal, in `out` (which may be
    `sq` itself) or else in one new n x n array."""
    vals = np.divide(sq, -(epsilon * epsilon), out=out)
    np.exp(vals, out=vals)
    np.fill_diagonal(vals, 1.0)
    return vals


def gaussian_kernel(cloud: PointCloud, epsilon: float) -> KernelMatrix:
    """Gaussian affinity exp(-|x_i - x_j|^2 / epsilon^2).

    The diagonal is exactly 1 and is the row maximum; entries lie in (0, 1].
    """
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    sq = squared_distances(cloud.points)
    return KernelMatrix(_gaussian_values(sq, epsilon, out=sq))


def _degree_normalized(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^{-1/2} K D^{-1/2} for a kernel K, and its degrees d (the row sums)."""
    deg = values.sum(axis=1)
    if not np.all(deg > 0.0):
        raise DegeneracyError("kernel has a zero row degree; input is corrupt")
    inv_sqrt = 1.0 / np.sqrt(deg)
    # outer(inv_sqrt, inv_sqrt) * values, scaled in place: the same products
    # as values * outer(...) without a second n x n temporary
    out = np.multiply.outer(inv_sqrt, inv_sqrt)
    out *= values
    return out, deg


def _eigensolve(values: np.ndarray, k: int, vectors: bool):
    """Top-k eigenvalues of a dense symmetric matrix, or its whole spectrum.

    Implicitly restarted Lanczos computes only the top k; below the measured
    crossovers in n and k, or when ARPACK does not converge within its restart
    cap, a dense LAPACK solve (`eigvalsh`, or numpy's `eigh` for vectors)
    returns the whole spectrum instead. Either way the eigenvalues come in
    ascending order, plus the matching unit eigenvectors as columns when
    `vectors` is set. The settings are explained with the LANCZOS_* constants.

    Raises NumericalError when the dense solve does not converge.
    """
    n = values.shape[0]
    if n >= LANCZOS_MIN_N and k <= LANCZOS_MAX_RANK_FRACTION * n:
        # imported here: scipy.sparse adds 20-30 ms to `import dynamap`
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        ncv = max(LANCZOS_NCV, 2 * k + 1)
        maxiter = int(LANCZOS_MATVECS_PER_N * n) // (ncv - k)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            out = eigsh(
                values, k=k, which="LA", ncv=ncv, v0=v0, maxiter=maxiter,
                return_eigenvectors=vectors,
            )
        except ArpackNoConvergence:
            pass  # stalled: the dense solve answers
        else:
            if not vectors:
                return np.sort(out)
            lam, vec = out
            order = np.argsort(lam)
            return lam[order], vec[:, order]
    try:
        return np.linalg.eigh(values) if vectors else eigvalsh(values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _second_eigenvalue(kernel_values: np.ndarray) -> float:
    """Second-largest eigenvalue of D^{-1/2} K D^{-1/2} for a positive kernel.

    The top eigenpair is known (eigenvalue 1, eigenvector sqrt(d)), so the two
    largest eigenvalues suffice: Lanczos with k = 2 from n = LANCZOS_MIN_N on,
    the dense spectrum below it or when Lanczos stalls (`_eigensolve`).
    """
    sym, _ = _degree_normalized(kernel_values)
    return float(_eigensolve(sym, 2, vectors=False)[-2])


def _median_squared_distance(sq: np.ndarray) -> float:
    """Median of the positive entries in the strict upper triangle of `sq`.

    The triangle is gathered row by row, which needs no n(n-1)/2 index arrays.
    """
    upper = np.concatenate([sq[i, i + 1 :] for i in range(sq.shape[0] - 1)])
    pos = upper[upper > 0.0]
    if pos.size == 0:
        raise CalibrationError(
            "all points coincide; the second eigenvalue is constant", achieved_range=None
        )
    return float(np.median(pos))


def calibrate_epsilon(
    cloud: PointCloud,
    target_lambda2: float = 0.5,
    tol: float = 1e-3,
) -> float:
    """The bandwidth `calibrated_kernel` finds, without its kernel."""
    return calibrated_kernel(cloud, target_lambda2, tol)[0]


def calibrated_kernel(
    cloud: PointCloud,
    target_lambda2: float = 0.5,
    tol: float = 1e-3,
) -> tuple[float, KernelMatrix]:
    """A Gaussian bandwidth whose diffusion matrix has the requested second
    eigenvalue, and the kernel at that bandwidth.

    The second eigenvalue runs from 1 (epsilon -> 0, kernel collapses to the
    identity) down to 0 (epsilon -> infinity, kernel collapses to all-ones),
    so the sign of lambda2 - target at the median pairwise distance says which
    way the root lies. The search walks that way in factor-2 steps until the
    sign changes, then runs Illinois regula falsi on log(epsilon) inside the
    bracket, accepting the first bandwidth whose |lambda2 - target| <= tol.
    When the walk reaches median * 2^(+-20) without a sign change, a 64-point
    log-spaced grid over that whole reach looks for a crossing of a
    non-monotone profile.

    The squared distances are computed once and every probe kernel is built
    from them; the accepted probe's kernel is returned, bit-identical to
    `gaussian_kernel(cloud, epsilon)`. Each probe's kernel is dropped before
    the next one is built.

    Raises CalibrationError, reporting the range of eigenvalues reached, when
    no bandwidth in the reach crosses the target or the refinement stalls.
    """
    if not 0.0 < target_lambda2 < 1.0:
        raise InputError(f"target second eigenvalue must lie in (0, 1), got {target_lambda2}")
    if not tol > 0.0:
        raise InputError(f"tol must be positive, got {tol}")

    sq = squared_distances(cloud.points)
    x0 = 0.5 * math.log(_median_squared_distance(sq))  # log of the median distance
    reached: list[float] = []
    probe = None  # kernel values of the latest probe

    def gap(x: float) -> float:
        """lambda2 - target at epsilon = exp(x)."""
        nonlocal probe
        probe = None  # drop the previous probe before building this one
        probe = _gaussian_values(sq, math.exp(x))
        reached.append(_second_eigenvalue(probe))
        return reached[-1] - target_lambda2

    def accept(x: float) -> tuple[float, KernelMatrix]:
        """The latest probe, which was made at epsilon = exp(x)."""
        return math.exp(x), KernelMatrix(probe)

    def miss(message: str) -> CalibrationError:
        achieved = (min(reached), max(reached))
        return CalibrationError(f"{message}: achieved range {achieved}", achieved_range=achieved)

    # walk: lambda2 above the target means the bandwidth is too narrow
    b, fb = x0, gap(x0)
    if abs(fb) <= tol:
        return accept(b)
    step = math.log(2.0) if fb > 0.0 else -math.log(2.0)
    for _ in range(MAX_DOUBLINGS):
        a, fa = b, fb
        b, fb = a + step, gap(a + step)
        if abs(fb) <= tol:
            return accept(b)
        if fa * fb < 0.0:
            break
    else:
        # no sign change within the reach: scan it for a non-monotone crossing
        reach = MAX_DOUBLINGS * math.log(2.0)
        grid = np.linspace(x0 - reach, x0 + reach, GRID_POINTS)
        scans = np.array([gap(x) for x in grid])
        hits = np.flatnonzero(np.abs(scans) <= tol)
        if hits.size:
            # the latest probe is the grid's last point: rebuild the hit's
            # kernel, in the squared distances, which are not needed any more
            probe = None
            eps = float(np.exp(grid[hits[0]]))
            return eps, KernelMatrix(_gaussian_values(sq, eps, out=sq))
        crossings = np.flatnonzero(scans[:-1] * scans[1:] < 0.0)
        if crossings.size == 0:
            raise miss(f"second eigenvalue never crosses {target_lambda2}")
        k = crossings[0]
        a, fa, b, fb = float(grid[k]), float(scans[k]), float(grid[k + 1]), float(scans[k + 1])

    # Illinois: halve the stored value of an endpoint kept twice in a row
    kept = 0
    for _ in range(MAX_REFINEMENTS):
        x = (a * fb - b * fa) / (fb - fa)
        fx = gap(x)
        if abs(fx) <= tol:
            return accept(x)
        if fx * fb > 0.0:
            b, fb = x, fx
            if kept < 0:
                fa *= 0.5
            kept = -1
        else:
            a, fa = x, fx
            if kept > 0:
                fb *= 0.5
            kept = 1
    raise miss(f"refinement stalled short of |lambda2 - {target_lambda2}| <= {tol:.3e}")
