"""Gaussian affinity kernels and bandwidth calibration to a target second eigenvalue."""
from __future__ import annotations

import contextlib
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
# its first crossing to Illinois, before giving up. tol is CALIBRATION_TOL,
# on lambda2 itself. Illinois and the secant steps interpolate
# logit(lambda2) - logit(target), which has the sign of lambda2 - target:
# 1 - lambda2 ~ epsilon^2 as epsilon -> 0 (the generator is epsilon^2 times a
# Laplacian) and lambda2 ~ epsilon^-2 as epsilon -> infinity, so logit(lambda2)
# is nearly linear in log(epsilon), slope -2 at both ends, where lambda2 - target
# is flat near a target close to 1 or 0. A lambda2 within the probe dtype's eps
# of 1 or 0 has no finite logit; Illinois bisects while an endpoint holds one.
CALIBRATION_TOL = 1e-3
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
# gives the same answer to roundoff. Calibration's probes on this route run in
# float32, halving their memory traffic (`_second_eigenvalue`, `_calibrate`).
LANCZOS_MIN_N = 150
LANCZOS_MAX_RANK_FRACTION = 0.1
LANCZOS_NCV = 20
LANCZOS_MATVECS_PER_N = 0.25

# rows per block where an n x n operation is split into row blocks
# (`_degree_normalized`, `distances.direct_global_distance`, the triangle of
# `squared_distances`): a 64 x n block takes 512 bytes per point, so its
# temporaries stay in cache for n in the thousands instead of forming a whole
# n x n temporary. For the triangle, 64-row blocks measured as well as 128 and
# 256 or better at the change epochs' 1024 x 30-70 points (d = 30: 6.5-7.3,
# 7.0-7.3 and 7.7-8.0 ms; d = 50: 11.5, 15.2 and 16.8 ms), since a block also
# computes the lower half of its diagonal square
ROW_BLOCK = 64

# the squared-distance pass (`squared_distances`, which every route from points
# to a kernel takes: calibration, `_gaussian_diffusion`, `gaussian_kernel`, the
# convergence study and the CLI's point inputs) computes only the upper
# triangle from TRIANGLE_MIN_D coordinates on. Mirroring the triangle moves it
# through memory twice more, which pays only where cdist's O(d) work per entry
# outweighs it: on a 2-core x86 VM the triangle took 0.98-1.02x the whole
# pass's time at n = 1000, d = 3 but 1.15-1.23x at N = 4000, d = 3 (1.11-1.14x
# with 128-row blocks), and 0.74-0.98x at n = 1000-4000, d = 10
TRIANGLE_MIN_D = 10

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

    scipy's compiled `cdist(..., "sqeuclidean")` sums (x_ik - x_jk)^2 for each
    entry over k in coordinate order from 0 (it unrolls across rows, not
    coordinates), so every entry is 0 + d_0^2 + d_1^2 + ..., the plain
    per-coordinate sum bit for bit. From TRIANGLE_MIN_D coordinates on, only
    the upper triangle is computed: each ROW_BLOCK-row block r0:r1 takes
    cdist of its rows against points r0:, and the part right of its diagonal
    square is mirrored into rows r1:. fl(a - b)^2 = fl(b - a)^2, so a mirrored
    entry is the one cdist would compute there: either way the result equals
    one whole `cdist(points, points, "sqeuclidean")` bit for bit, exactly
    symmetric with an exactly zero diagonal.
    """
    # imported here: scipy.spatial adds 60-120 ms to `import dynamap`
    from scipy.spatial.distance import cdist

    pts = np.ascontiguousarray(points, dtype=float)
    n, d = pts.shape
    if d < TRIANGLE_MIN_D:
        return cdist(pts, pts, "sqeuclidean")
    out = np.empty((n, n))
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        block = cdist(pts[r0:r1], pts[r0:], "sqeuclidean")
        out[r0:r1, r0:] = block
        # from `block`, not from out[r0:r1, r1:]: a copy between two views of
        # `out` makes numpy take an overlap temporary
        out[r1:, r0:r1] = block[:, r1 - r0 :].T
        del block  # one block alive at a time, also while the next is computed
    return out


def _gaussian_values(sq: np.ndarray, epsilon: float, out: np.ndarray) -> np.ndarray:
    """exp(-sq / epsilon^2) with an exact unit diagonal, in `out` (which may be `sq`)."""
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


def _gaussian_diffusion_values(sq: np.ndarray, epsilon: float, out: np.ndarray) -> np.ndarray:
    """D^{-1/2} K D^{-1/2} of K = exp(-sq / epsilon^2), in `out` (which may be
    `sq`) by the IEEE operations of `diffusion_matrix(gaussian_kernel(...))`.
    No KernelMatrix check is lost: K, from a validated PointCloud, lies in
    [0, 1] with a unit diagonal; a NaN makes its row's degree NaN, which the
    normalization refuses; DiffusionMatrix checks exact symmetry."""
    vals = _gaussian_values(sq, epsilon, out=out)
    _degree_normalized(vals)
    return vals


def _gaussian_diffusion(cloud: PointCloud, epsilon: float) -> DiffusionMatrix:
    """`diffusion_matrix(gaussian_kernel(cloud, epsilon))` bit for bit, in one n x n array."""
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    sq = squared_distances(cloud.points)
    return DiffusionMatrix(_gaussian_diffusion_values(sq, epsilon, out=sq))


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
    # the thread count is process-wide: two threads in here at once would race
    # on it, and one could restore the other's setting mid-solve
    blas = _scipy_openblas()
    previous = blas[0]() if blas is not None else 1
    if previous == 1:
        return solve(*args, **kwargs)
    blas[1](1)
    try:
        return solve(*args, **kwargs)
    finally:
        blas[1](previous)


def _eigensolve(values: np.ndarray, k: int, vectors: bool, deflate: np.ndarray | None = None):
    """Top-k eigenvalues of a dense symmetric matrix, or its whole spectrum.

    Implicitly restarted Lanczos computes only the top k, with scipy's OpenBLAS
    pool on one thread (process-wide) until eigsh returns or raises. Below the
    measured crossovers in n and k, or when ARPACK does not converge within its
    restart cap, a dense LAPACK solve (`eigvalsh`, or numpy's `eigh` for
    vectors) returns the whole spectrum instead, on numpy's threads as set.
    Either way the eigenvalues come in ascending order, plus the matching unit
    eigenvectors as columns when `vectors` is set. The settings are explained
    with the LANCZOS_* constants; a unit top eigenvector `deflate` drops its eigenvalue.

    Raises NumericalError when the dense solve does not converge.
    """
    n = values.shape[0]
    if n >= LANCZOS_MIN_N and k <= LANCZOS_MAX_RANK_FRACTION * n:
        # imported here: scipy.sparse adds 20-30 ms to `import dynamap`
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        ncv = max(LANCZOS_NCV, 2 * k + 1)
        maxiter = int(LANCZOS_MATVECS_PER_N * n) // (ncv - k)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        op = values if deflate is None else LinearOperator(
            values.shape, lambda x: values @ x - deflate * (deflate @ x), dtype=values.dtype
        )
        try:
            out = _on_one_scipy_blas_thread(
                eigsh, op, k=k, which="LA", ncv=ncv, v0=v0, maxiter=maxiter,
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
        return np.linalg.eigh(values) if vectors else eigvalsh(values)[: n - (deflate is not None)]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _second_eigenvalue(sym: np.ndarray) -> float:
    """Second-largest eigenvalue of a diffusion matrix D^{-1/2} K D^{-1/2}.

    The top eigenpair is known (eigenvalue 1, eigenvector sqrt(d)), so the two
    largest eigenvalues suffice: Lanczos with k = 2 from n = LANCZOS_MIN_N on,
    the dense spectrum below it or when Lanczos stalls (`_eigensolve`).
    A float32 probe (unit kernel diagonal, so d_i = 1 / sym_ii) takes k = 1 on
    sym - u u^T, u = sqrt(d) / |sqrt(d)|: float32 cannot tell a lambda2 near 1 from 1.
    """
    if sym.dtype != np.float32:
        return float(_eigensolve(sym, 2, vectors=False)[-2])
    top = 1.0 / np.sqrt(np.diagonal(sym))
    return float(_eigensolve(sym, 1, vectors=False, deflate=top / np.linalg.norm(top))[-1])


def _coincident_points() -> CalibrationError:
    return CalibrationError(
        "all points coincide; the second eigenvalue is constant", achieved_range=None
    )


def _median_squared_distance(sq: np.ndarray) -> float:
    """Median of the positive entries in the strict upper triangle of `sq`,
    gathered row by row into one n(n-1)/2 buffer: no index arrays, no second
    copy of the triangle."""
    n = sq.shape[0]
    buf = np.empty(n * (n - 1) // 2)
    count = 0
    for i in range(n - 1):
        row = sq[i, i + 1 :]
        pos = row[row > 0.0]
        buf[count : count + pos.size] = pos
        count += pos.size
    if count == 0:
        raise _coincident_points()
    return float(np.median(buf[:count], overwrite_input=True))  # partitions `buf`, no copy


class _Start(NamedTuple):
    """Where a bandwidth search starts, and what it knows there."""

    log_epsilon: float
    # d logit(lambda2) / d log(epsilon) near the start, when known and finite
    slope: float | None


def calibrated_diffusion_matrix(
    cloud: PointCloud, target_lambda2: float = 0.5
) -> tuple[float, DiffusionMatrix]:
    """A Gaussian bandwidth whose diffusion matrix has the requested second
    eigenvalue, and the diffusion matrix at that bandwidth.

    The second eigenvalue runs from 1 (epsilon -> 0, kernel collapses to the
    identity) down to 0 (epsilon -> infinity, kernel collapses to all-ones),
    so the sign of lambda2 - target at the median pairwise distance says which
    way the root lies. The search walks that way in factor-2 steps until the
    sign changes, then runs Illinois regula falsi on log(epsilon) inside the
    bracket, interpolating logit(lambda2) - logit(target) (nearly linear in
    log(epsilon); it bisects while an endpoint's lambda2 lies within the probe
    dtype's eps of 1 or 0), and accepts the first bandwidth whose
    |lambda2 - target| <= CALIBRATION_TOL (1e-3). When the walk reaches
    median * 2^(+-20) without a sign change, a 64-point log-spaced grid over
    that whole reach is probed in order: its first point within the tolerance
    is accepted, and without one, its first crossing of a non-monotone
    profile is refined by Illinois.

    The squared distances are computed once, and every probe's diffusion
    matrix is built from them in one buffer, in float32 from n = LANCZOS_MIN_N
    on. The returned matrix is the accepted bandwidth's in float64, bit-identical
    to `diffusion_matrix(gaussian_kernel(cloud, epsilon))`: after float32 probes
    it is rebuilt in the squared distances' array, and a float64 lambda2 outside
    the tolerance sends the search on from there on float64 probes.

    Raises CalibrationError, reporting the range of eigenvalues reached, when
    no bandwidth in the reach crosses the target or the refinement stalls.
    """
    return _calibrate(cloud, target_lambda2)[:2]


def _calibrate(
    cloud: PointCloud, target_lambda2: float, start: _Start | None = None, finish=None
) -> tuple[float, DiffusionMatrix, _Start]:
    """`calibrated_diffusion_matrix`'s search from `start`, or from the median
    pairwise distance when `start` is None; also the start for the next member
    of a family whose calibrated bandwidth moves little from member to member.

    A warm start that misses takes a secant step first: its size is
    |logit(lambda2) - logit(target)| / |slope|, at most log 2, and without a
    negative slope or a finite logit it is log 2. The factor-2 walk, Illinois
    and the grid scan (up to its first point within CALIBRATION_TOL), centred
    on the start, follow unchanged. The returned start is the accepted (the
    latest) probe's log(epsilon) and the slope of logit(lambda2) between the
    last two probes at distinct bandwidths (None when it is not finite), or the
    slope received when the first probe was accepted.

    From n = LANCZOS_MIN_N on, the probes run in float32. `finish(matrix)`, on
    the float64 matrix returned, gives what to return in its place and that
    matrix's lambda2, or None for `_second_eigenvalue` to find it; outside
    CALIBRATION_TOL the search resumes there on float64 probes.
    """
    if not 0.0 < target_lambda2 < 1.0:
        raise InputError(f"target second eigenvalue must lie in (0, 1), got {target_lambda2}")
    finish = finish or (lambda mat: (mat, None))
    with contextlib.suppress(CalibrationError):  # a float64 search decides a failure
        if cloud.n >= LANCZOS_MIN_N:
            eps, (kept, lam2), found = _search(cloud, target_lambda2, start, finish, np.float32)
            if abs(lam2 - target_lambda2) <= CALIBRATION_TOL:
                return eps, kept, found
            del kept  # before the float64 search's arrays
            start = found
    eps, (kept, _), found = _search(cloud, target_lambda2, start, finish, np.float64)
    return eps, kept, found


def _search(cloud: PointCloud, target_lambda2: float, start: _Start | None, finish, dtype):
    """`_calibrate`'s search on `dtype` probes, with `finish`'s pair for the matrix."""
    tol = CALIBRATION_TOL

    sq = squared_distances(cloud.points)
    if start is None:
        # log of the median distance
        start = _Start(0.5 * math.log(_median_squared_distance(sq)), None)
    elif not sq.any():
        raise _coincident_points()
    x0 = start.log_epsilon
    probed: list[float] = []  # log(epsilon) of each probe
    reached: list[float] = []  # its lambda2
    gaps: list[float] = []  # and its gap(x)
    probe = np.empty(sq.shape, dtype)  # the latest probe's diffusion matrix
    edge = float(np.finfo(dtype).eps)
    logit_target = math.log(target_lambda2 / (1.0 - target_lambda2))

    def gap(x: float) -> float:
        """logit(lambda2) - logit(target) at epsilon = exp(x), whose probe is
        kept: +-inf for a lambda2 within `edge` of 1 or 0."""
        _gaussian_diffusion_values(sq, math.exp(x), out=probe)
        lam2 = _second_eigenvalue(probe)
        probed.append(x)
        reached.append(lam2)
        if lam2 >= 1.0 - edge or lam2 <= edge:
            gaps.append(math.copysign(math.inf, lam2 - 0.5))
        else:
            gaps.append(math.log(lam2 / (1.0 - lam2)) - logit_target)
        return gaps[-1]

    def hit() -> bool:
        return abs(reached[-1] - target_lambda2) <= tol

    def next_start(x: float) -> _Start:
        last = len(probed) - 1
        for k in range(last - 1, -1, -1):
            if probed[k] != probed[last]:
                slope = (gaps[last] - gaps[k]) / (probed[last] - probed[k])
                return _Start(x, slope if math.isfinite(slope) else None)
        return _Start(x, start.slope)

    def accept(x: float):  # x: the latest probe; a float32 one is rebuilt in float64
        eps = math.exp(x)
        if dtype == np.float64:
            return eps, finish(DiffusionMatrix(probe)), next_start(x)
        mat = DiffusionMatrix(_gaussian_diffusion_values(sq, eps, out=sq))
        kept, lam2 = finish(mat)
        return eps, (kept, _second_eigenvalue(mat.values) if lam2 is None else lam2), next_start(x)

    def miss(message: str) -> CalibrationError:
        achieved = (min(reached), max(reached))
        return CalibrationError(f"{message}: achieved range {achieved}", achieved_range=achieved)

    # walk: lambda2 above the target means the bandwidth is too narrow
    b, fb = x0, gap(x0)
    if hit():
        return accept(b)
    step = math.log(2.0)
    if start.slope is not None and start.slope < 0.0:
        step = min(step, abs(fb / start.slope))  # the secant step
    sign = 1.0 if fb > 0.0 else -1.0
    for _ in range(MAX_DOUBLINGS):
        a, fa = b, fb
        b, fb = a + sign * step, gap(a + sign * step)
        if hit():
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
            if hit():
                return accept(x)
        crossings = np.flatnonzero(np.multiply(scans[:-1], scans[1:]) < 0.0)
        if crossings.size == 0:
            raise miss(f"second eigenvalue never crosses {target_lambda2}")
        k = crossings[0]
        a, fa, b, fb = grid[k], scans[k], grid[k + 1], scans[k + 1]

    # Illinois: halve the stored value of an endpoint kept twice in a row;
    # bisect while an endpoint's logit is infinite
    kept = 0
    for _ in range(MAX_REFINEMENTS):
        if math.isinf(fa) or math.isinf(fb):
            x = 0.5 * (a + b)
        else:
            x = (a * fb - b * fa) / (fb - fa)
        fx = gap(x)
        if hit():
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
