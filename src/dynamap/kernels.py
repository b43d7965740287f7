"""Gaussian affinity kernels and bandwidth calibration to a target second eigenvalue."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh

from .exceptions import CalibrationError, DegeneracyError, InputError, NumericalError

# Bandwidth search parameters: the search starts at the median pairwise
# distance (or, along a family, at the previous member's bandwidth) and runs
# Newton's method in x = log(epsilon) on g = logit(lambda2) - logit(target),
# which has the sign of lambda2 - target and is nearly linear in x: 1 - lambda2
# ~ epsilon^2 as epsilon -> 0 (the generator is epsilon^2 times a Laplacian) and
# lambda2 ~ epsilon^-2 as epsilon -> infinity, so its slope is -2 at both ends,
# where lambda2 - target is flat near a target close to 1 or 0. Each missed
# probe gives g' from its own eigenvector (`_second_eigenvalue`). Until g
# changes sign a step is at most 2 log 2, and it is log 2 toward the root where
# g' >= 0 or g is infinite (a lambda2 within the probe dtype's eps of 1 or 0).
# After MAX_DOUBLINGS steps without a sign change (a non-monotone profile), a
# log-spaced grid of GRID_POINTS over start * 2^[-20, 20] (about start *
# [1e-6, 1e6]) is probed in order: it stops at its first point within tol, or
# else brackets its first crossing. Inside a bracket, a Newton point outside it
# bisects instead, for at most MAX_REFINEMENTS probes. tol is CALIBRATION_TOL,
# on lambda2 itself.
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
# gives the same answer to roundoff. Calibration's probes hold the kernel K,
# not D^{-1/2} K D^{-1/2}, in float32 on this route: Lanczos applies D^{-1/2}
# inside its operator, so a probe's n x n passes are one cast-and-scale, an exp
# and the row sums (`_second_eigenvalue`, `_calibrate`).
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
    """exp(-sq / epsilon^2) with an exact unit diagonal, in `out` (which may be
    `sq`). A float32 `out` is scaled in float64 and rounded as it is written, in
    one pass: the exponents keep float64's range (float32's holds no squared
    distance below 1e-45 or above 3e38) and equal the float64 route's, rounded."""
    if out.dtype == np.float32:
        vals = np.multiply(sq, -1.0 / epsilon / epsilon, out=out)
    else:
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


def _eigensolve(values: np.ndarray, k: int, vectors: bool, kernel: bool = False):
    """Top-k eigenvalues of a dense symmetric matrix, or its whole spectrum.

    Implicitly restarted Lanczos computes only the top k, with scipy's OpenBLAS
    pool on one thread (process-wide) until eigsh returns or raises. Below the
    measured crossovers in n and k, or when ARPACK does not converge within its
    restart cap, a dense LAPACK solve (`eigvalsh`, or numpy's `eigh` for
    vectors) returns the whole spectrum instead, on numpy's threads as set.
    Either way the eigenvalues come in ascending order, plus the matching unit
    eigenvectors as columns when `vectors` is set. The settings are explained
    with the LANCZOS_* constants. With `kernel`, `values` is a kernel K that the
    call may overwrite, standing for D^{-1/2} K D^{-1/2}: Lanczos runs on that
    matrix less its top eigenpair (1, sqrt(d) / |sqrt(d)|), x -> s(K(s x)) -
    u u^T x with s = d^{-1/2} and u = sqrt(d) / |sqrt(d)|, and the dense route
    normalizes K in place and returns its whole spectrum, top included.

    Raises NumericalError when the dense solve does not converge.
    """
    n = values.shape[0]
    if n >= LANCZOS_MIN_N and k <= LANCZOS_MAX_RANK_FRACTION * n:
        # imported here: scipy.sparse adds 20-30 ms to `import dynamap`
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        ncv = max(LANCZOS_NCV, 2 * k + 1)
        maxiter = int(LANCZOS_MATVECS_PER_N * n) // (ncv - k)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        op = values
        if kernel:
            root = np.sqrt(values.sum(axis=1))
            s, u = 1.0 / root, root / np.linalg.norm(root)
            op = LinearOperator(
                values.shape, lambda x: s * (values @ (s * x)) - u * (u @ x), dtype=values.dtype
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
    if kernel:
        _degree_normalized(values)
    try:
        return np.linalg.eigh(values) if vectors else eigvalsh(values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _second_eigenvalue(sq: np.ndarray, x: float, out: np.ndarray):
    """lambda2 of the Gaussian diffusion matrix D^{-1/2} K D^{-1/2} at epsilon =
    exp(x), and a function giving d lambda2 / dx there, valid until `out` is
    overwritten.

    The probe is the kernel K = exp(-S / epsilon^2) of the squared distances S,
    built in `out` (float32 or float64), which the call may overwrite. The top
    eigenpair is known (eigenvalue 1, eigenvector sqrt(d)), so k = 1 on the
    matrix less its top (float32 cannot tell a lambda2 near 1 from 1): Lanczos
    on K from n = LANCZOS_MIN_N on, or the dense spectrum of the matrix itself,
    normalized in `out` (`_eigensolve`).

    The slope is first-order perturbation of lambda2's unit eigenvector v (Kato
    1966, ch. II): with K' = K o 2S / epsilon^2 and d' = K' 1, d lambda2 / dx =
    w^T K' w - lambda2 sum_i v_i^2 d'_i / d_i, where w = D^{-1/2} v. That is
    2 / epsilon^2 [p^T (M o S) p - lambda2 sum_i (p_i^2 / q_i) ((M o S) q)_i]
    for M = K, p = w and q = 1, and, as K o S = D^{1/2} (A o S) D^{1/2}, for
    the normalized A, p = v and q = sqrt(d) = diag(A)^{-1/2} (K's diagonal is 1):
    one ROW_BLOCK pass of (M o S) [p, q].
    """
    eps = math.exp(x)
    probe = _gaussian_values(sq, eps, out=out)
    lam, vec = _eigensolve(probe, 1, vectors=True, kernel=True)
    lanczos = lam.size == 1  # else the dense route's whole spectrum, and `probe` holds A
    top = -1 if lanczos else -2
    lam2, v = float(lam[top]), vec[:, top].copy()  # not a view of the dense route's n x n

    def slope() -> float:
        if lanczos:
            pq = np.column_stack([v / np.sqrt(probe.sum(axis=1)), np.ones(v.size)])
        else:
            pq = np.column_stack([v, 1.0 / np.sqrt(np.diagonal(probe))])
        prod = np.empty(pq.shape)
        for r0 in range(0, v.size, ROW_BLOCK):
            rows = slice(r0, r0 + ROW_BLOCK)
            prod[rows] = (probe[rows] * sq[rows]) @ pq
        p, q = pq.T
        return 2.0 / (eps * eps) * (p @ prod[:, 0] - lam2 * np.sum(p * p / q * prod[:, 1]))

    return lam2, slope


def _coincident_points() -> CalibrationError:
    return CalibrationError(
        "all points coincide; the second eigenvalue is constant", achieved_range=None
    )


def _median_squared_distance(sq: np.ndarray) -> float:
    """Median of the positive entries in the strict upper triangle of `sq`,
    gathered ROW_BLOCK rows at a time into one n(n-1)/2 buffer: no index arrays,
    no second copy of the triangle. The median depends only on the multiset."""
    n = sq.shape[0]
    buf = np.empty(n * (n - 1) // 2)
    count = 0
    for r0 in range(0, n, ROW_BLOCK):
        block = sq[r0 : r0 + ROW_BLOCK, r0:]
        upper = np.arange(block.shape[1]) > np.arange(block.shape[0])[:, None]
        pos = block[upper & (block > 0.0)]
        buf[count : count + pos.size] = pos
        count += pos.size
    if count == 0:
        raise _coincident_points()
    return float(np.median(buf[:count], overwrite_input=True))  # partitions `buf`, no copy


def calibrated_diffusion_matrix(
    cloud: PointCloud, target_lambda2: float = 0.5
) -> tuple[float, DiffusionMatrix]:
    """A Gaussian bandwidth whose diffusion matrix has the requested second
    eigenvalue, and the diffusion matrix at that bandwidth.

    The second eigenvalue runs from 1 (epsilon -> 0, kernel collapses to the
    identity) down to 0 (epsilon -> infinity, kernel collapses to all-ones).
    From the median pairwise distance, the search takes Newton steps in
    log(epsilon) on logit(lambda2) - logit(target), which is nearly linear
    there, with each probe's slope taken from its own eigenvector. It accepts
    the first bandwidth whose |lambda2 - target| <= CALIBRATION_TOL (1e-3).
    Until the sign of lambda2 - target changes, a step is at most a factor 4
    in epsilon, and a factor 2 toward the root where the slope gives no Newton
    point; inside the bracket that a sign change makes, a Newton point outside
    it bisects instead. When 20 steps find no sign change, a 64-point
    log-spaced grid over median * 2^(+-20) is probed in order: its first point
    within the tolerance is accepted, and without one, its first crossing of a
    non-monotone profile is bracketed.

    The squared distances are computed once, and every probe is the Gaussian
    kernel built from them in one buffer, in float32 from n = LANCZOS_MIN_N on,
    whose D^{-1/2} the eigensolver's operator applies. The returned matrix is
    the accepted bandwidth's in float64, rebuilt in the squared distances'
    array, bit-identical to `diffusion_matrix(gaussian_kernel(cloud, epsilon))`;
    after float32 probes, its lambda2 outside the tolerance sends the search on
    from there on float64 probes.

    Raises CalibrationError, reporting the range of eigenvalues reached, when
    no bandwidth in the reach crosses the target or the refinement stalls.
    """
    return _calibrate(cloud, target_lambda2)


def _calibrate(
    cloud: PointCloud, target_lambda2: float, start: float | None = None, finish=None
) -> tuple[float, DiffusionMatrix]:
    """`calibrated_diffusion_matrix`'s search from log(epsilon) = `start`, or
    from the median pairwise distance when `start` is None: along a family
    whose calibrated bandwidth moves little from member to member, the log of
    the bandwidth accepted for the member before. The grid scan is centred on
    the start.

    From n = LANCZOS_MIN_N on, each probe is the float32 Gaussian kernel, and
    `_second_eigenvalue` applies its D^{-1/2} inside Lanczos. `finish(matrix)`, on
    the float64 matrix returned, gives what to return in its place and that
    matrix's lambda2, or None for `_eigensolve` to find it; outside
    CALIBRATION_TOL the search resumes there on float64 probes.
    """
    if not 0.0 < target_lambda2 < 1.0:
        raise InputError(f"target second eigenvalue must lie in (0, 1), got {target_lambda2}")
    finish = finish or (lambda mat: (mat, None))
    with contextlib.suppress(CalibrationError):  # a float64 search decides a failure
        if cloud.n >= LANCZOS_MIN_N:
            eps, kept, lam2 = _search(cloud, target_lambda2, start, finish, np.float32)
            if abs(lam2 - target_lambda2) <= CALIBRATION_TOL:
                return eps, kept
            del kept  # before the float64 search's arrays
            start = math.log(eps)
    return _search(cloud, target_lambda2, start, finish, np.float64)[:2]


def _search(cloud: PointCloud, target_lambda2: float, start: float | None, finish, dtype):
    """`_calibrate`'s search on `dtype` probes: the bandwidth, `finish`'s pair for
    its matrix, and (after float32 probes) that matrix's lambda2."""
    tol = CALIBRATION_TOL

    sq = squared_distances(cloud.points)
    if start is None:
        start = 0.5 * math.log(_median_squared_distance(sq))  # log of the median distance
    elif not sq.any():
        raise _coincident_points()
    reached: list[float] = []  # lambda2 of each probe
    probe = np.empty(sq.shape, dtype)  # the latest probe
    edge = float(np.finfo(dtype).eps)
    logit_target = math.log(target_lambda2 / (1.0 - target_lambda2))
    log2 = math.log(2.0)

    def gap(x: float):
        """g(x) = logit(lambda2) - logit(target) at epsilon = exp(x), and a
        function giving g'(x) until the next probe; +-inf and None for a lambda2
        within `edge` of 1 or 0."""
        lam2, slope = _second_eigenvalue(sq, x, probe)
        reached.append(lam2)
        if lam2 >= 1.0 - edge or lam2 <= edge:
            return math.copysign(math.inf, lam2 - 0.5), None
        return math.log(lam2 / (1.0 - lam2)) - logit_target, lambda: slope() / (lam2 * (1.0 - lam2))

    def hit() -> bool:
        return abs(reached[-1] - target_lambda2) <= tol

    def advance(x: float, g: float, dg, a: float | None):
        """Probe the point after x, the latest probe or bracket end: its Newton
        point where g'(x) < 0. Without a bracket (`a` None) the step is at most
        2 log 2, and log 2 toward the root without a Newton point; inside the
        bracket between a and x, a Newton point outside it bisects instead.
        Returns the new (x, g, dg, a), `a` the bracket's end opposite x."""
        slope = dg() if dg is not None else math.nan
        newton = x - g / slope if slope < 0.0 else None
        if a is None:
            step = math.copysign(log2, g) if newton is None else newton - x
            x1 = x + min(max(step, -2.0 * log2), 2.0 * log2)
        elif newton is not None and min(a, x) < newton < max(a, x):
            x1 = newton
        else:
            x1 = 0.5 * (a + x)
        g1, dg1 = gap(x1)
        return x1, g1, dg1, (x if g * g1 < 0.0 else a)

    def accept(x: float):  # rebuilt in float64 in the squared distances' array
        eps = math.exp(x)
        mat = DiffusionMatrix(_gaussian_diffusion_values(sq, eps, out=sq))
        kept, lam2 = finish(mat)
        if lam2 is None and dtype == np.float32:
            lam2 = float(_eigensolve(mat.values, 2, vectors=False)[-2])
        return eps, kept, lam2

    def miss(message: str) -> CalibrationError:
        achieved = (min(reached), max(reached))
        return CalibrationError(f"{message}: achieved range {achieved}", achieved_range=achieved)

    x, (g, dg), a = start, gap(start), None
    for _ in range(MAX_DOUBLINGS):  # the walk: until g changes sign
        if hit() or a is not None:
            break
        x, g, dg, a = advance(x, g, dg, a)
    if not hit() and a is None:
        # no sign change: scan the reach, up to its first point within tol,
        # for a crossing of a non-monotone profile
        reach = MAX_DOUBLINGS * log2
        grid = np.linspace(start - reach, start + reach, GRID_POINTS).tolist()
        scans = []
        for x in grid:
            scans.append(gap(x)[0])
            if hit():
                return accept(x)
        crossings = np.flatnonzero(np.multiply(scans[:-1], scans[1:]) < 0.0)
        if crossings.size == 0:
            raise miss(f"second eigenvalue never crosses {target_lambda2}")
        k = crossings[0]
        # x is not the latest probe, so it has no slope: the bracket bisects first
        a, x, g, dg = grid[k], grid[k + 1], scans[k + 1], None
    for _ in range(MAX_REFINEMENTS):  # inside the bracket
        if hit():
            break
        x, g, dg, a = advance(x, g, dg, a)
    if hit():
        return accept(x)
    raise miss(f"refinement stalled short of |lambda2 - {target_lambda2}| <= {tol:.3e}")
