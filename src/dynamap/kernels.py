"""Gaussian affinity kernels and bandwidth calibration to a target second eigenvalue."""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigvalsh

from .exceptions import CalibrationError, DegeneracyError, InputError, NumericalError

# Bandwidth search parameters: the search starts at the median pairwise
# distance (or, along a family, at the previous member's bandwidth) and walks
# toward the target in factor-2 steps, at most MAX_DOUBLINGS of them (a reach of
# start * 2^[-20, 20], about start * [1e-6, 1e6]), until lambda2 - target
# changes sign; Illinois regula falsi on log(epsilon) then refines the bracket
# for at most MAX_REFINEMENTS steps. When the walk finds no sign change (a
# non-monotone profile), a log-spaced grid of GRID_POINTS over the same reach
# is probed in order: it stops at its first point within tol, or else hands
# its first crossing to Illinois, before giving up.
MAX_DOUBLINGS = 20
GRID_POINTS = 64
MAX_REFINEMENTS = 100

# Eigensolver routes. The pipelines need only a few top eigenpairs: lambda2 for
# calibration, rank 2-10 for the decompositions. Implicitly restarted Lanczos
# (ARPACK through scipy's eigsh) finds k of them in O(k n^2) per restart, where
# a dense LAPACK solve costs O(n^3). ARPACK runs on scipy's bundled OpenBLAS and
# its matrix-vector products on numpy's; a thread per core in both pools made a
# torus family twice as slow, so scipy's pool runs one thread during each eigsh
# call and numpy's keeps its count. Then, on calibrated torus kernels on a
# 2-core x86 VM, Lanczos lambda2 takes 0.72, 0.81, 1.02, 1.26 and 7.5 ms at
# n = 120, 150, 200, 300 and 1000 against 0.68, 1.01, 2.16, 4.70 and 76 ms
# dense; a rank-k Lanczos decomposition beats a full dense eigh up to k ~ n/12
# (n = 1000) to n/7 (n = 200). So Lanczos runs when n >= LANCZOS_MIN_N and
# k <= LANCZOS_MAX_RANK_FRACTION * n, and a dense whole-spectrum solve otherwise.
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

# side of the square tiles the exact-symmetry check compares: a tile and its
# mirror stay in cache, where vals == vals.T walks the transpose with stride n
# through memory (n = 4000, 1 thread: 190 ms whole, 51 ms tiled)
SYMMETRY_TILE = 256


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


def _square_symmetric(values, name: str) -> np.ndarray:
    """`values` as a float array, refused unless square and exactly symmetric:
    np.array_equal(vals, vals.T) tile by tile, each SYMMETRY_TILE block (i, j)
    with j >= i against block (j, i) transposed (a NaN compares unequal)."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise InputError(f"{name} must be a square matrix")
    n, side = vals.shape[0], SYMMETRY_TILE
    for i in range(0, n, side):
        for j in range(i, n, side):
            block = vals[i : i + side, j : j + side]
            if not np.array_equal(block, vals[j : j + side, i : i + side].T):
                raise InputError(f"{name} must be exactly symmetric")
    return vals


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric, strictly positive affinity matrix for one parameter instance."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("kernel entries must be finite")
        vals = _square_symmetric(vals, "kernel")
        if vals.shape[0] < 2:
            raise InputError("kernel must be at least 2x2")
        # strictly positive in exact arithmetic; far pairs at tiny bandwidths
        # underflow to zero in floats, so only signs and the diagonal are checked
        if np.any(vals < 0.0):
            raise InputError("kernel entries must be positive")
        if not np.all(np.diag(vals) > 0.0):
            raise InputError("kernel diagonal must be strictly positive")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DiffusionMatrix:
    """Degree-symmetrized kernel K[i,j] / sqrt(d_i d_j), d the row sums; its top
    eigenvector is sqrt(d), so the sampled density d/n is not stored beside it."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _square_symmetric(self.values, "diffusion matrix"))

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


def _degree_normalized(values: np.ndarray) -> None:
    """Scale a kernel K that the caller owns into D^{-1/2} K D^{-1/2} in place,
    d its row sums. Row blocks of outer(d^{-1/2}, d^{-1/2}) give the whole
    outer product's IEEE products without its n x n temporary."""
    deg = values.sum(axis=1)
    if not np.all(deg > 0.0):
        raise DegeneracyError("kernel has a zero row degree; input is corrupt")
    inv_sqrt = 1.0 / np.sqrt(deg)
    for r0 in range(0, values.shape[0], ROW_BLOCK):
        values[r0 : r0 + ROW_BLOCK] *= np.multiply.outer(inv_sqrt[r0 : r0 + ROW_BLOCK], inv_sqrt)


@functools.cache
def _scipy_openblas():
    """scipy's OpenBLAS (get_num_threads, set_num_threads), or None without one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "scipy_openblas" in line})
    except OSError:  # no /proc
        return None
    for lib in map(ctypes.CDLL, paths):  # numpy's copy suffixes its symbols with 64_
        get = getattr(lib, "scipy_openblas_get_num_threads", None)
        put = getattr(lib, "scipy_openblas_set_num_threads", None)
        if get is not None and put is not None:
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


def _on_one_scipy_blas_thread(solve, *args, **kwargs):
    """solve(*args, **kwargs) with scipy's OpenBLAS pool on one thread, then back."""
    blas = _scipy_openblas()
    previous = blas[0]() if blas is not None else 1
    if previous == 1:
        return solve(*args, **kwargs)
    blas[1](1)
    try:
        return solve(*args, **kwargs)
    finally:
        blas[1](previous)


def _eigensolve(values: np.ndarray, k: int, vectors: bool):
    """Top-k eigenvalues of a dense symmetric matrix, or its whole spectrum.

    Implicitly restarted Lanczos computes only the top k, with scipy's OpenBLAS
    pool on one thread (process-wide) until eigsh returns or raises. Below the
    measured crossovers in n and k, or when ARPACK does not converge within its
    restart cap, a dense LAPACK solve (`eigvalsh`, or numpy's `eigh` for
    vectors) returns the whole spectrum instead, on numpy's threads as set.
    Either way the eigenvalues come in ascending order, plus the matching unit
    eigenvectors as columns when `vectors` is set. The settings are explained
    with the LANCZOS_* constants.

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
            out = _on_one_scipy_blas_thread(
                eigsh, values, k=k, which="LA", ncv=ncv, v0=v0, maxiter=maxiter,
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


def _second_eigenvalue(sym: np.ndarray) -> float:
    """Second-largest eigenvalue of a diffusion matrix D^{-1/2} K D^{-1/2}.

    The top eigenpair is known (eigenvalue 1, eigenvector sqrt(d)), so the two
    largest eigenvalues suffice: Lanczos with k = 2 from n = LANCZOS_MIN_N on,
    the dense spectrum below it or when Lanczos stalls (`_eigensolve`).
    """
    return float(_eigensolve(sym, 2, vectors=False)[-2])


def _coincident_points() -> CalibrationError:
    return CalibrationError(
        "all points coincide; the second eigenvalue is constant", achieved_range=None
    )


def _median_squared_distance(sq: np.ndarray) -> float:
    """Median of the positive entries in the strict upper triangle of `sq`,
    gathered row by row: no n(n-1)/2 index arrays, no copy of the triangle."""
    rows = (sq[i, i + 1 :] for i in range(sq.shape[0] - 1))
    pos = np.concatenate([row[row > 0.0] for row in rows])
    if pos.size == 0:
        raise _coincident_points()
    return float(np.median(pos, overwrite_input=True))  # partitions `pos`, no copy


class _Start(NamedTuple):
    """Where a bandwidth search starts, and what it knows there."""

    log_epsilon: float
    # d lambda2 / d log(epsilon) near the start, when known
    slope: float | None


def calibrated_diffusion_matrix(
    cloud: PointCloud,
    target_lambda2: float = 0.5,
    tol: float = 1e-3,
) -> tuple[float, DiffusionMatrix]:
    """A Gaussian bandwidth whose diffusion matrix has the requested second
    eigenvalue, and the diffusion matrix at that bandwidth.

    The second eigenvalue runs from 1 (epsilon -> 0, kernel collapses to the
    identity) down to 0 (epsilon -> infinity, kernel collapses to all-ones),
    so the sign of lambda2 - target at the median pairwise distance says which
    way the root lies. The search walks that way in factor-2 steps until the
    sign changes, then runs Illinois regula falsi on log(epsilon) inside the
    bracket, accepting the first bandwidth whose |lambda2 - target| <= tol.
    When the walk reaches median * 2^(+-20) without a sign change, a 64-point
    log-spaced grid over that whole reach is probed in order: its first point
    within tol is accepted, and without one, its first crossing of a
    non-monotone profile is refined by Illinois.

    The squared distances are computed once. Each probe's kernel is built from
    them and normalized in place; that one normalization serves its lambda2
    and, for the accepted probe, the returned matrix, bit-identical to
    `diffusion_matrix(gaussian_kernel(cloud, epsilon))`. Each probe is dropped
    before the next is built. No KernelMatrix check is lost: a probe is
    exp(-sq / epsilon^2) of a validated PointCloud with a unit diagonal, in
    [0, 1]; a NaN makes its row's degree NaN, which the normalization refuses
    with DegeneracyError; DiffusionMatrix checks exact symmetry.

    Raises CalibrationError, reporting the range of eigenvalues reached, when
    no bandwidth in the reach crosses the target or the refinement stalls.
    """
    return _calibrate(cloud, target_lambda2, tol)[:2]


def _calibrate(
    cloud: PointCloud,
    target_lambda2: float,
    tol: float,
    start: _Start | None = None,
) -> tuple[float, DiffusionMatrix, _Start]:
    """`calibrated_diffusion_matrix`'s search from `start`, or from the median
    pairwise distance when `start` is None; also the start for the next member
    of a family whose calibrated bandwidth moves little from member to member.

    A warm start that misses takes a secant step first: its size is
    |lambda2 - target| / |slope|, at most log 2, and without a negative slope
    it is log 2. The factor-2 walk, Illinois and the grid scan (up to its first
    point within tol), centred on the start, follow unchanged. The returned
    start is the accepted (the latest) probe's log(epsilon) and the slope
    between the last two probes at distinct bandwidths, or the slope received
    when the first probe was accepted.
    """
    if not 0.0 < target_lambda2 < 1.0:
        raise InputError(f"target second eigenvalue must lie in (0, 1), got {target_lambda2}")
    if not tol > 0.0:
        raise InputError(f"tol must be positive, got {tol}")

    sq = squared_distances(cloud.points)
    if start is None:
        # log of the median distance
        start = _Start(0.5 * math.log(_median_squared_distance(sq)), None)
    elif not sq.any():
        raise _coincident_points()
    x0 = start.log_epsilon
    probed: list[float] = []  # log(epsilon) of each probe
    reached: list[float] = []  # and its lambda2
    probe = None  # the latest probe's normalized kernel

    def gap(x: float) -> float:
        """lambda2 - target at epsilon = exp(x), whose probe is kept."""
        nonlocal probe
        probe = None  # drop the previous probe before building this one
        probe = _gaussian_values(sq, math.exp(x))
        _degree_normalized(probe)
        probed.append(x)
        reached.append(_second_eigenvalue(probe))
        return reached[-1] - target_lambda2

    def next_start(x: float) -> _Start:
        last = len(probed) - 1
        for k in range(last - 1, -1, -1):
            if probed[k] != probed[last]:
                return _Start(x, (reached[last] - reached[k]) / (probed[last] - probed[k]))
        return _Start(x, start.slope)

    def accept(x: float) -> tuple[float, DiffusionMatrix, _Start]:  # x: the latest probe
        return math.exp(x), DiffusionMatrix(probe), next_start(x)

    def miss(message: str) -> CalibrationError:
        achieved = (min(reached), max(reached))
        return CalibrationError(f"{message}: achieved range {achieved}", achieved_range=achieved)

    # walk: lambda2 above the target means the bandwidth is too narrow
    b, fb = x0, gap(x0)
    if abs(fb) <= tol:
        return accept(b)
    step = math.log(2.0)
    if start.slope is not None and start.slope < 0.0:
        step = min(step, abs(fb / start.slope))  # the secant step
    sign = 1.0 if fb > 0.0 else -1.0
    for _ in range(MAX_DOUBLINGS):
        a, fa = b, fb
        b, fb = a + sign * step, gap(a + sign * step)
        if abs(fb) <= tol:
            return accept(b)
        if fa * fb < 0.0:
            break
        step = math.log(2.0)
    else:
        # no sign change within the reach: scan it, up to its first point
        # within tol, for a crossing of a non-monotone profile
        reach = MAX_DOUBLINGS * math.log(2.0)
        grid = np.linspace(x0 - reach, x0 + reach, GRID_POINTS).tolist()
        scans = []
        for x in grid:
            scans.append(gap(x))
            if abs(scans[-1]) <= tol:
                return accept(x)
        crossings = np.flatnonzero(np.multiply(scans[:-1], scans[1:]) < 0.0)
        if crossings.size == 0:
            raise miss(f"second eigenvalue never crosses {target_lambda2}")
        k = crossings[0]
        a, fa, b, fb = grid[k], scans[k], grid[k + 1], scans[k + 1]

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
