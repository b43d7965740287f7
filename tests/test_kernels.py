import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from dynamap import (
    CalibrationError,
    DegeneracyError,
    InputError,
    PointCloud,
    calibrated_diffusion_matrix,
    diffusion_matrix,
    gaussian_kernel,
    pinched_torus_family,
    sample_torus,
    spectral_decomposition,
)
from dynamap.datasets import TorusSpec, synthetic_cube_family
from dynamap.experiments import _calibrated_decompositions, change_detection_experiment
from dynamap.kernels import (
    CALIBRATION_TOL,
    GRID_POINTS,
    LANCZOS_MIN_N,
    MAX_DOUBLINGS,
    ROW_BLOCK,
    SYMMETRY_TILE,
    TRIANGLE_MIN_D,
    KernelMatrix,
    _calibrate,
    _degree_normalized,
    _eigensolve,
    _gaussian_diffusion,
    _gaussian_values,
    _median_squared_distance,
    _scipy_openblas,
    _second_eigenvalue,
    squared_distances,
)
from dynamap.operators import DiffusionMatrix

from conftest import (
    counting_eigsh, near_identity_kernel, peak_bytes, random_kernel, refuse_dense_solves,
)


def test_point_cloud_validation():
    with pytest.raises(InputError):
        PointCloud(np.array([[0.0, 1.0]]))  # single point
    with pytest.raises(InputError):
        PointCloud(np.array([[0.0], [np.inf]]))
    with pytest.raises(InputError):
        PointCloud(np.array([0.0, 1.0]))  # not 2-d
    cloud = PointCloud(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    assert cloud.n == 3 and cloud.d == 2


def test_kernel_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        KernelMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(InputError):
        KernelMatrix(np.array([[1.0, -0.1], [-0.1, 1.0]]))  # negative entry
    with pytest.raises(InputError):
        KernelMatrix(np.array([[0.0, 0.5], [0.5, 1.0]]))  # zero diagonal
    with pytest.raises(InputError):
        KernelMatrix(np.ones((2, 3)))
    # exact zeros off the diagonal are tolerated: they are bandwidth underflow
    KernelMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_gaussian_huge_bandwidth_is_all_ones():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(7, 3)))
    sq = squared_distances(cloud.points)
    eps = 1e12 * math.sqrt(sq.max())
    kern = gaussian_kernel(cloud, eps)
    assert np.max(np.abs(kern.values - 1.0)) < 1e-9


def test_gaussian_identical_points_exact_one():
    cloud = PointCloud(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    kern = gaussian_kernel(cloud, 1e-3)
    assert kern.values[0, 1] == 1.0


def test_gaussian_two_points_hand_value():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    kern = gaussian_kernel(cloud, 1.0)
    assert kern.values[0, 1] == pytest.approx(0.36787944117144233, abs=0)


def test_gaussian_rejects_nonpositive_epsilon():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(InputError):
        gaussian_kernel(cloud, 0.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.floats(0.2, 5.0))
def test_gaussian_symmetry_and_range(seed, eps):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(6, 2)))
    kern = gaussian_kernel(cloud, eps)
    assert np.array_equal(kern.values, kern.values.T)
    assert np.all(kern.values > 0.0) and np.all(kern.values <= 1.0)
    assert np.all(np.diag(kern.values) == 1.0)
    # the diagonal is the row maximum
    assert np.all(kern.values.max(axis=1) == 1.0)


def test_gaussian_entries_decrease_with_smaller_epsilon():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(5, 3)))
    wide = gaussian_kernel(cloud, 2.0).values
    narrow = gaussian_kernel(cloud, 1.0).values
    off = ~np.eye(5, dtype=bool)
    assert np.all(narrow[off] <= wide[off])


def _lambda2_via_full_path(cloud, eps):
    dec = spectral_decomposition(diffusion_matrix(gaussian_kernel(cloud, eps)), 2)
    return dec.eigenvalues[1]


def test_calibrate_three_point_line():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.0]]))
    eps = calibrated_diffusion_matrix(cloud, 0.5)[0]
    # independent recheck through the full decomposition path
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrate_torus_sample():
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    eps = calibrated_diffusion_matrix(cloud, 0.5)[0]
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrate_high_target():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(size=(120, 8)))
    eps = calibrated_diffusion_matrix(cloud, 0.97)[0]
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.97) <= 1e-3


def test_calibrate_rejects_bad_target():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(InputError):
        calibrated_diffusion_matrix(cloud, 1.5)


def test_calibrate_coincident_points_fails_with_range():
    cloud = PointCloud(np.zeros((4, 2)))
    with pytest.raises(CalibrationError):
        calibrated_diffusion_matrix(cloud, 0.5)
    # a warm start has no median distance to find the coincidence for it
    with pytest.raises(CalibrationError, match="all points coincide") as info:
        _calibrate(cloud, 0.5, 0.0)
    assert info.value.achieved_range is None


def _rig_probes(monkeypatch, profile, slope):
    """Rig the lambda2 probe: at x = log(epsilon) it reads profile(x), with
    d lambda2 / dx = slope(x); returns the list of the x probed."""
    import dynamap.kernels as kernels_mod

    probed = []

    def rigged(sq, x, out):
        probed.append(x)
        return profile(x), lambda: slope(x)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    return probed


def _bump(x):
    return math.exp(-(x * x))


def test_calibrate_grid_scan_fallback(monkeypatch):
    # rig a non-monotone profile: the target is crossed only inside a bump,
    # whose wide side the first step, log 2 from the flat peak, brackets; a
    # target above the bump's peak sends the walk and the grid scan past
    # every bandwidth
    def profile(x):
        return 0.8 * _bump(x)  # peak 0.8 at x = 0

    _rig_probes(monkeypatch, profile, lambda x: -1.6 * x * _bump(x))
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps = calibrated_diffusion_matrix(cloud, 0.5)[0]
    assert abs(profile(math.log(eps)) - 0.5) <= 1e-3

    # a target above the bump's peak is unreachable: error reports the range
    with pytest.raises(CalibrationError) as info:
        calibrated_diffusion_matrix(cloud, 0.9)
    assert info.value.achieved_range is not None
    assert info.value.achieved_range[1] <= 0.8 + 1e-12


def test_calibrate_grid_scan_crossing_goes_to_the_bracket(monkeypatch):
    # rig a profile below the target on the narrow side, where the walk looks
    # from the median distance 1, with a smooth bump on the wide side that
    # crosses the target between grid points: the scan hits no point within
    # tol, and its first crossing is the bracket that the search refines
    def profile(x):
        return 0.3 + 0.4 * _bump((x - 2.0) / 0.5)

    probed = _rig_probes(monkeypatch, profile, lambda x: -3.2 * (x - 2.0) * _bump((x - 2.0) / 0.5))
    reach = MAX_DOUBLINGS * math.log(2.0)
    grid = np.linspace(-reach, reach, GRID_POINTS)
    scans = np.array([profile(x) for x in grid]) - 0.5
    assert np.all(np.abs(scans) > 1e-3)
    k = int(np.flatnonzero(scans[:-1] * scans[1:] < 0.0)[0])
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, mat = calibrated_diffusion_matrix(cloud, 0.5)
    assert grid[k] < math.log(eps) < grid[k + 1]
    assert abs(profile(math.log(eps)) - 0.5) <= 1e-3
    assert _same_diffusion_matrix(mat, cloud, eps)
    # the bracket's first probe, with no slope from the latest grid point, bisects it
    scan_end = 1 + MAX_DOUBLINGS + GRID_POINTS
    assert probed[scan_end] == pytest.approx(0.5 * (grid[k] + grid[k + 1]), abs=1e-12)
    assert all(grid[k] < x < grid[k + 1] for x in probed[scan_end:])


def test_calibrate_refinement_stall_reports_the_range(monkeypatch):
    # a jump across the target at x = 0.1: the walk brackets it at once, and
    # no bandwidth in the bracket comes within tol, so the bisection gives up
    _rig_probes(monkeypatch, lambda x: 0.3 if x >= 0.1 else 0.7, lambda x: 0.0)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(CalibrationError, match="refinement stalled") as info:
        calibrated_diffusion_matrix(cloud, 0.5)
    assert info.value.achieved_range == (0.3, 0.7)


def _squared_distances_loop(points):
    # reference: per-coordinate accumulation with fresh temporaries
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    sq = np.zeros((n, n))
    for k in range(pts.shape[1]):
        diff = pts[:, k, None] - pts[None, :, k]
        sq += diff * diff
    return sq


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.integers(0, 3),
)
def test_squared_distances_matches_reference_loop(points, copies):
    # duplicated rows must give exact zeros in both versions
    pts = np.vstack([points, points[:copies]])
    sq = squared_distances(pts)
    assert np.array_equal(sq, _squared_distances_loop(pts))
    assert np.array_equal(sq, sq.T)


@pytest.mark.parametrize("d", [1, 3, TRIANGLE_MIN_D - 1, TRIANGLE_MIN_D, 70])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000])
def test_squared_distances_across_row_blocks(n, d):
    # sizes on both sides of the ROW_BLOCK (64) edges and dimensions on both
    # sides of TRIANGLE_MIN_D, with duplicated rows whose pairs fall in
    # different blocks (from n = 65 on): the upper triangle's blocks and
    # their mirror give one whole cdist's matrix
    rng = np.random.default_rng(100 * n + d)
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    pts[n // 2] = pts[0]
    pts[-1] = pts[n // 3]
    sq = squared_distances(pts)
    assert np.array_equal(sq, _squared_distances_loop(pts))
    assert np.array_equal(sq, cdist(pts, pts, "sqeuclidean"))
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)
    assert sq[0, n // 2] == 0.0 and sq[n // 3, n - 1] == 0.0


def test_squared_distance_triangle_peak_is_the_result_and_one_block():
    # each block is released before the next is computed
    n = 1000
    pts = np.random.default_rng(3).normal(size=(n, TRIANGLE_MIN_D))
    _, peak = peak_bytes(lambda: squared_distances(pts))
    assert peak <= (n + ROW_BLOCK) * n * 8 + 4096


def _cube_layouts(d, n=256):
    """Point sets in the layouts the pipelines pass, n points from a cube of 2n
    points in d + 10 bands with duplicated rows: a band-permuted column subset
    (as a change epoch sees its scene; numpy's fancy indexing returns it
    Fortran-ordered), a Fortran-ordered copy of a C-ordered block and a
    row-strided view."""
    rng = np.random.default_rng(d)
    cube = rng.normal(size=(2 * n, d + 10)) * 10.0 ** rng.integers(-3, 4, size=d + 10)
    cube[7] = cube[0]
    cube[300] = cube[100]
    return {
        "permuted_subset": cube[:n, rng.permutation(d + 10)[:d]],
        "fortran": np.asfortranarray(cube[:n, :d]),
        "strided": cube[::2, 3 : 3 + d],
    }


@pytest.mark.parametrize("layout", ["permuted_subset", "fortran", "strided"])
@pytest.mark.parametrize("d", [30, 50, 70])
def test_squared_distances_of_pipeline_layouts(d, layout):
    pts = _cube_layouts(d)[layout]
    sq = squared_distances(pts)
    assert np.array_equal(sq, _squared_distances_loop(pts))
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)
    assert np.sum(sq == 0.0) > pts.shape[0]  # the duplicated pairs
    # relabelling the points relabels the matrix, bit for bit
    perm = np.random.default_rng(d + 1).permutation(pts.shape[0])
    assert np.array_equal(squared_distances(pts[perm]), sq[perm][:, perm])


@pytest.mark.parametrize("layout", ["permuted_subset", "fortran", "strided"])
@pytest.mark.parametrize("d", [30, 50, 70])
def test_squared_distances_are_one_whole_cdist_at_change_epoch_shapes(d, layout):
    # 1024 pixels in 30-70 bands, as change detection's epochs; duplicated
    # rows 100 and 300 (50 and 150 when strided) fall in different row blocks
    pts = _cube_layouts(d, n=1024)[layout]
    assert pts.shape == (1024, d)
    sq = squared_distances(pts)
    assert np.array_equal(sq, cdist(pts, pts, "sqeuclidean"))
    assert np.sum(sq == 0.0) > pts.shape[0]


def _same_diffusion_matrix(mat, cloud, eps):
    """`mat` is diffusion_matrix(gaussian_kernel(cloud, eps)), bit for bit."""
    ref = diffusion_matrix(gaussian_kernel(cloud, eps))
    return np.array_equal(mat.values, ref.values)


# clouds of 2-40 distinct points on a 0.1 grid in 1-3 dimensions
_distinct_clouds = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-30, 30)] * d), min_size=2, max_size=40, unique=True
    )
).map(lambda rows: PointCloud(0.1 * np.array(rows, dtype=float)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_distinct_clouds, st.floats(0.05, 0.95))
def test_calibrated_lambda2_lies_within_the_tolerance(cloud, target):
    _, mat = calibrated_diffusion_matrix(cloud, target)
    assert abs(np.linalg.eigvalsh(mat.values)[-2] - target) <= CALIBRATION_TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_distinct_clouds, st.floats(-3.0, 3.0))
def test_fixed_and_calibrated_bandwidths_build_diffusion_matrix_bit_for_bit(cloud, log_eps):
    # the one route from points to a diffusion matrix, at a fixed bandwidth
    # and at the calibrated one, gives the public two-step route's values
    eps = math.exp(log_eps)
    assert _same_diffusion_matrix(_gaussian_diffusion(cloud, eps), cloud, eps)
    eps, mat = calibrated_diffusion_matrix(cloud)
    assert _same_diffusion_matrix(mat, cloud, eps)


def test_gaussian_diffusion_peak_is_one_matrix():
    # the squared distances become the diffusion matrix in place: a kernel
    # plus a normalized copy would cross
    n = 1000
    cloud = PointCloud(np.random.default_rng(7).normal(size=(n, 3)))
    with pytest.raises(InputError, match="epsilon must be positive"):
        _gaussian_diffusion(cloud, 0.0)
    _, peak = peak_bytes(lambda: _gaussian_diffusion(cloud, 1.0))
    assert peak <= 1.25 * n * n * 8


def test_calibration_reads_the_tolerance_at_call_time(monkeypatch):
    import dynamap.kernels as kernels_mod

    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    target = _probe_lambda2(cloud, x0) + 0.01  # the first probe misses by 0.01
    monkeypatch.setattr(kernels_mod, "CALIBRATION_TOL", 0.02)
    assert calibrated_diffusion_matrix(cloud, target)[0] == math.exp(x0)


def _calibrate_counting(monkeypatch, cloud, target):
    """calibrated_diffusion_matrix's bandwidth and the number of lambda2 probes
    it made; its matrix must be diffusion_matrix's of gaussian_kernel's, and a
    second call must find the same bandwidth."""
    import dynamap.kernels as kernels_mod

    probes = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(*args):
        probes.append(1)
        return second(*args)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    eps, mat = calibrated_diffusion_matrix(cloud, target)
    assert _same_diffusion_matrix(mat, cloud, eps)
    count = len(probes)
    assert calibrated_diffusion_matrix(cloud, target)[0] == eps
    return eps, count


def _walk_start(cloud):
    """log of the median distance, where the bandwidth search starts."""
    return 0.5 * math.log(_median_squared_distance(squared_distances(cloud.points)))


def _probe(cloud, x, dtype=float):
    """The lambda2 probe at x = log(epsilon): lambda2 and d lambda2 / dx."""
    sq = squared_distances(cloud.points)
    lam2, slope = _second_eigenvalue(sq, x, np.empty(sq.shape, dtype))
    return lam2, slope()


def _probe_lambda2(cloud, x):
    return _probe(cloud, x)[0]


def _logit(p):
    return math.log(p / (1.0 - p))


def _newton_point(cloud, x, target):
    """x's Newton point on logit(lambda2) - logit(target), from x's own slope."""
    lam2, slope = _probe(cloud, x)
    return x - (_logit(lam2) - _logit(target)) * lam2 * (1.0 - lam2) / slope


def test_calibrated_kernel_first_probe_hit(monkeypatch):
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    eps, probes = _calibrate_counting(monkeypatch, cloud, _probe_lambda2(cloud, x0))
    assert probes == 1 and eps == math.exp(x0)


def test_calibrated_kernel_walk_hit(monkeypatch):
    # a target 0.05 wider than the median distance: the first probe misses,
    # and the Newton step from its own slope lands within the tolerance
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    target = _probe_lambda2(cloud, x0 + 0.05)
    assert _probe_lambda2(cloud, x0) - target > 1e-3  # so the first probe misses
    eps, probes = _calibrate_counting(monkeypatch, cloud, target)
    assert probes == 2
    assert math.log(eps) == pytest.approx(_newton_point(cloud, x0, target), abs=1e-12)


def test_calibrated_kernel_bracketed_newton_hit(monkeypatch):
    # at target 0.5 the first Newton step overshoots the root; inside the
    # bracket it makes, Newton steps from the latest probe's slope converge
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    eps, probes = _warm_calibrate(monkeypatch, None, cloud, 0.5)
    readings = [_probe_lambda2(cloud, x) - 0.5 for x in probes]
    assert len(probes) == 4 and probes[0] == x0
    assert probes[1] == pytest.approx(_newton_point(cloud, x0, 0.5), abs=1e-12)
    assert readings[0] < -1e-3 and readings[1] > 1e-3  # the bracket
    assert all(probes[1] < x < x0 for x in probes[2:])
    for x, nxt in zip(probes[1:], probes[2:]):
        assert nxt == pytest.approx(_newton_point(cloud, x, 0.5), abs=1e-12)
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrated_kernel_grid_scan_hit(monkeypatch):
    # rig a profile that sits below the target everywhere the walk looks (it
    # walks toward small bandwidths from the median distance 1, log 2 at a time
    # on the flat profile) and on it only on a plateau at larger bandwidths,
    # which holds one grid point (x = 0.22)
    _rig_probes(monkeypatch, lambda x: 0.5 if 0.1 <= x <= 0.35 else 0.3, lambda x: 0.0)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, probes = _calibrate_counting(monkeypatch, cloud, 0.5)
    reach = MAX_DOUBLINGS * math.log(2.0)
    k = 32  # the plateau's grid point
    grid = np.linspace(-reach, reach, GRID_POINTS)
    assert 0.1 <= grid[k] <= 0.35
    # the scan stops at the hit, and the bandwidth is the one it probed
    assert probes == 1 + MAX_DOUBLINGS + k + 1
    assert eps == math.exp(grid[k])


def test_calibrated_kernel_logistic_profile_hit(monkeypatch):
    # lambda2 = 1 / (1 + e^(2 (x - s))) has logit(lambda2) = -2 (x - s), linear
    # in x = log(epsilon): the Newton step from 0 lands on the root 0.3
    root = 0.3
    s = root + 0.5 * _logit(0.97)

    def profile(x):
        return 1.0 / (1.0 + math.exp(2.0 * (x - s)))

    _rig_probes(monkeypatch, profile, lambda x: -2.0 * profile(x) * (1.0 - profile(x)))
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    assert _walk_start(cloud) == 0.0
    eps, probes = _calibrate_counting(monkeypatch, cloud, 0.97)
    assert probes == 2 and math.log(eps) == pytest.approx(root, abs=1e-9)


def test_calibrated_kernel_clamped_readings(monkeypatch):
    # a continuous profile that reads exactly 1.0 on the narrow side, as float32
    # probes of a nearly disconnected graph do: a reading of 1.0 has no finite
    # logit, so the walk steps log 2 from it; that step brackets the root with
    # a reading below the target, from which Newton steps converge
    def logistic(x):
        return 1.0 / (1.0 + math.exp(2.0 * (x - 2.0)))

    def profile(x):
        return min(1.0, 1.02 * logistic(x))

    probed = _rig_probes(
        monkeypatch, profile, lambda x: -2.04 * logistic(x) * (1.0 - logistic(x))
    )
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    assert profile(0.0) == 1.0 and profile(math.log(2.0)) < 0.97 - 1e-3
    eps, probes = _calibrate_counting(monkeypatch, cloud, 0.97)
    assert probed[:2] == [0.0, math.log(2.0)]
    assert probes <= 4 and all(0.0 < x < math.log(2.0) for x in probed[2:probes])
    assert abs(profile(math.log(eps)) - 0.97) <= CALIBRATION_TOL


def _warm_calibrate(monkeypatch, start, cloud, target):
    """_calibrate's bandwidth from log(epsilon) = `start` and the x = log(epsilon)
    of each lambda2 probe; its matrix must be diffusion_matrix's of
    gaussian_kernel's at the bandwidth it returns."""
    import dynamap.kernels as kernels_mod

    probed = []
    second = kernels_mod._second_eigenvalue

    def recording_probe(sq, x, out):
        probed.append(x)
        return second(sq, x, out)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", recording_probe)
    eps, mat = _calibrate(cloud, target, start)
    probes = list(probed)
    assert _same_diffusion_matrix(mat, cloud, eps)
    return eps, probes


def test_warm_start_first_probe_hit(monkeypatch):
    # the start is accepted as it stands
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x = _walk_start(cloud) + 0.3
    eps, probes = _warm_calibrate(monkeypatch, x, cloud, _probe_lambda2(cloud, x))
    assert probes == [x] and eps == math.exp(x)


def test_warm_start_newton_step_hit(monkeypatch):
    # a start 0.05 wider than the root: the first step is the Newton point of
    # the start's own slope, within the tolerance
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    root = _walk_start(cloud) + 0.3
    x = root + 0.05
    target = _probe_lambda2(cloud, root)
    assert target - _probe_lambda2(cloud, x) > 1e-3  # the start misses, on the wide side
    eps, probes = _warm_calibrate(monkeypatch, x, cloud, target)
    assert len(probes) == 2 and probes[0] == x
    assert probes[1] == pytest.approx(_newton_point(cloud, x, target), abs=1e-12)
    assert math.log(eps) == probes[1]
    assert abs(_lambda2_via_full_path(cloud, eps) - target) <= 1e-3


def test_warm_start_capped_newton_step_then_bracket(monkeypatch):
    # logit(lambda2) = -atan(10 (x - 1)) flattens away from its root 1: from
    # 0.5, the Newton point lies 3.6 away, so the step is capped at 2 log 2;
    # that crosses the root, and the Newton point from there, 11.6 away, lies
    # outside the bracket, so the search bisects it and then refines inside
    def profile(x):
        return 1.0 / (1.0 + math.exp(math.atan(10.0 * (x - 1.0))))

    def slope(x):
        lam2 = profile(x)
        return -lam2 * (1.0 - lam2) * 10.0 / (1.0 + (10.0 * (x - 1.0)) ** 2)

    _rig_probes(monkeypatch, profile, slope)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, probes = _warm_calibrate(monkeypatch, 0.5, cloud, 0.5)
    assert probes[1] == pytest.approx(0.5 + 2.0 * math.log(2.0), abs=1e-12) and probes[1] > 1.0
    assert probes[2] == pytest.approx(0.5 * (probes[0] + probes[1]), abs=1e-12)
    assert all(probes[0] < x < probes[1] for x in probes[3:])
    assert math.log(eps) == probes[-1] and abs(profile(probes[-1]) - 0.5) <= CALIBRATION_TOL
    assert len(probes) == 7


@pytest.mark.parametrize("slope", [None, 0.0, 0.4])
def test_warm_start_without_negative_slope_steps_by_log2(monkeypatch, slope):
    # a start that reads above the target with a slope of lambda2 that is not
    # negative, or that reads 1.0 (slope None), whose logit is infinite: the
    # first step widens the bandwidth by a factor 2, onto the target's plateau
    x = 3.0
    start = 1.0 if slope is None else 0.7
    _rig_probes(
        monkeypatch, lambda y: start if y < x + 0.5 else 0.5, lambda y: slope if y < x + 0.5 else 0.0
    )
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, probes = _warm_calibrate(monkeypatch, x, cloud, 0.5)
    assert probes == [x, x + math.log(2.0)] and eps == math.exp(probes[1])


def test_warm_start_grid_scan_is_centred_on_the_start(monkeypatch):
    # rig a profile below the target everywhere except on a plateau around one
    # point of the grid centred on the start (x = 3, where the median distance
    # would put it at 0); the walk heads the other way, so the scan finds it
    x = 3.0
    reach = MAX_DOUBLINGS * math.log(2.0)
    grid = np.linspace(x - reach, x + reach, GRID_POINTS)
    _rig_probes(monkeypatch, lambda y: 0.5 if abs(y - grid[40]) < 0.05 else 0.3, lambda y: 0.0)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, probes = _warm_calibrate(monkeypatch, x, cloud, 0.5)
    assert len(probes) == 1 + MAX_DOUBLINGS + 41  # the scan stops at the hit
    assert probes[1 + MAX_DOUBLINGS :] == pytest.approx(list(grid[:41]), abs=1e-12)
    assert eps == math.exp(grid[40])


def test_family_calibration_warm_starts_from_the_previous_member(monkeypatch):
    # member 0 starts cold, as calibrated_diffusion_matrix does; each later
    # member starts at the bandwidth of the one before, and the family needs
    # fewer probes than cold starts (11 against 14 measured: a cold start
    # misses at the median and lands within the tolerance in one Newton step)
    import dynamap.kernels as kernels_mod

    clouds = pinched_torus_family(7, n=300)[0][:7]
    probes = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(*args):
        probes.append(1)
        return second(*args)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    epsilons, decs = _calibrated_decompositions(clouds, 0.5, 2)
    warm = len(probes)
    probes.clear()
    cold = [calibrated_diffusion_matrix(cloud, 0.5)[0] for cloud in clouds]
    assert epsilons[0] == cold[0]
    for cloud, eps, dec in zip(clouds, epsilons, decs):
        lam2 = np.linalg.eigvalsh(_normalized(gaussian_kernel(cloud, eps).values))[-2]
        assert abs(lam2 - 0.5) <= 1e-3
        assert dec.eigenvalues[1] == pytest.approx(lam2, abs=1e-10)
    assert warm <= 11 < len(probes)


@pytest.mark.parametrize("n", [300, 513])
def test_symmetry_check_finds_one_asymmetric_entry_at_tile_corners(n):
    # entries at the corners of the 256 x 256 tiles the check compares
    assert SYMMETRY_TILE == 256
    values = random_kernel(n, np.random.default_rng(n)).values
    KernelMatrix(values)
    DiffusionMatrix(values)
    for i, j in ((0, 255), (255, 256), (256, 0), (n - 1, 0)):
        bad = values.copy()
        bad[i, j] = np.nextafter(bad[i, j], 2.0)
        with pytest.raises(InputError, match="exactly symmetric"):
            KernelMatrix(bad)
        with pytest.raises(InputError, match="exactly symmetric"):
            DiffusionMatrix(bad)


def test_calibration_refuses_a_nan_probe(monkeypatch):
    # the accepted probe skips KernelMatrix's finiteness check: a NaN makes its
    # row's degree NaN, and the in-place normalization refuses that
    import dynamap.kernels as kernels_mod

    gaussian = kernels_mod._gaussian_values

    def corrupt(sq, epsilon, out=None):
        vals = gaussian(sq, epsilon, out=out)
        vals[0, 1] = vals[1, 0] = np.nan
        return vals

    monkeypatch.setattr(kernels_mod, "_gaussian_values", corrupt)
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    with pytest.raises(DegeneracyError):
        calibrated_diffusion_matrix(cloud)


def test_family_loop_peak_memory():
    # one member's n x n arrays at a time: its squared distances, and either
    # its float32 probe or the median's one n(n-1)/2 buffer (1.60 measured);
    # a second n x n normalized copy of the probe would cross the bound
    import scipy.sparse.linalg  # noqa: F401  its first import allocates ~2 n x n
    import scipy.spatial.distance  # noqa: F401  and this one's ~0.5 n x n

    n = 1000
    clouds = pinched_torus_family(7, n=n)[0][:3]
    _, peak = peak_bytes(lambda: _calibrated_decompositions(clouds, 0.5, 10))
    assert peak <= 1.75 * n * n * 8


def test_experiments_build_one_kernel_per_member(monkeypatch):
    # each member's squared distances are computed once, by the calibration,
    # and its calibrated kernel is decomposed without being rebuilt
    import dynamap.experiments as experiments_mod
    import dynamap.kernels as kernels_mod

    calls = {"squared_distances": 0, "gaussian_kernel": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (kernels_mod, experiments_mod):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    result = experiments_mod.torus_experiment(n=120)
    assert calls == {"squared_distances": len(result.epsilons), "gaussian_kernel": 0}
    assert len(result.epsilons) == 31
    calls.update(squared_distances=0)
    result = experiments_mod.change_detection_experiment(shape=(8, 8), block_size=3)
    assert calls == {"squared_distances": 3, "gaussian_kernel": 0}
    assert len(result.epsilons) == 3


def test_calibrate_torus_solve_count(monkeypatch):
    # the search must settle in a handful of probes, each answered by the
    # Lanczos route at this size: a dense solve (`eigvalsh`, or `eigh` for a
    # probe's eigenvector) would mean Lanczos stalled
    import dynamap.kernels as kernels_mod

    probes = []
    dense = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(*args):
        probes.append(1)
        return second(*args)

    def counting(solve):
        def counting_dense(*args, **kwargs):
            dense.append(1)
            return solve(*args, **kwargs)

        return counting_dense

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    monkeypatch.setattr(kernels_mod, "eigvalsh", counting(kernels_mod.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    calibrated_diffusion_matrix(cloud, 0.5)
    assert not dense  # so Lanczos never stalled
    assert 1 <= len(probes) <= 8


def test_float32_hit_missing_in_float64_resumes_on_float64_probes(monkeypatch):
    # rig every float32 probe to read the target: the first is accepted, its
    # matrix is rebuilt in float64, and that matrix's lambda2, outside the
    # tolerance, sends the search on from there on float64 probes, through
    # calibrated_diffusion_matrix's own check and through a family's rank-2
    # decomposition, which stands in for that check
    import dynamap.kernels as kernels_mod

    cloud = sample_torus(TorusSpec(), 300, seed=4)
    x0 = _walk_start(cloud)
    assert cloud.n >= LANCZOS_MIN_N and abs(_probe_lambda2(cloud, x0) - 0.5) > CALIBRATION_TOL
    second, solve, probes, checks = kernels_mod._second_eigenvalue, kernels_mod._eigensolve, [], []

    def rigged(sq, x, out):
        probes.append(out.dtype)
        return (0.5, lambda: 0.0) if out.dtype == np.float32 else second(sq, x, out)

    def recording_solve(values, k, vectors, kernel=False):
        if not kernel:  # not a probe
            checks.append((k, vectors))
        return solve(values, k, vectors, kernel)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    monkeypatch.setattr(kernels_mod, "_eigensolve", recording_solve)
    eps, mat = calibrated_diffusion_matrix(cloud, 0.5)
    # the float32 hit, the check, and at least the resumed search's first
    # probe (at the hit) and the one that meets the target
    assert probes[0] == np.float32 and len(probes) >= 3
    assert set(probes[1:]) == {np.dtype(np.float64)}
    assert checks == [(2, False)]
    assert abs(np.linalg.eigvalsh(mat.values)[-2] - 0.5) <= CALIBRATION_TOL
    assert _same_diffusion_matrix(mat, cloud, eps)
    searched = len(probes)
    probes.clear()
    checks.clear()
    epsilons, decs = _calibrated_decompositions([cloud], 0.5, 2)
    assert probes[0] == np.float32 and len(probes) == searched
    assert set(probes[1:]) == {np.dtype(np.float64)}
    assert checks == []  # no check solve
    assert epsilons[0] == eps and abs(decs[0].eigenvalues[1] - 0.5) <= CALIBRATION_TOL


def test_failed_float32_search_reruns_on_float64_probes(monkeypatch):
    # a float32 profile that never comes near the target ends the float32
    # search in CalibrationError after the walk and the grid scan; the float64
    # search from the same start then decides
    import dynamap.kernels as kernels_mod

    cloud = sample_torus(TorusSpec(), 300, seed=4)
    second, probes = kernels_mod._second_eigenvalue, []

    def rigged(sq, x, out):
        probes.append(out.dtype)
        return (0.9, lambda: 0.0) if out.dtype == np.float32 else second(sq, x, out)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    eps, mat = calibrated_diffusion_matrix(cloud, 0.5)
    tried = 1 + MAX_DOUBLINGS + GRID_POINTS
    assert probes[:tried] == [np.float32] * tried
    assert set(probes[tried:]) == {np.dtype(np.float64)}
    assert abs(np.linalg.eigvalsh(mat.values)[-2] - 0.5) <= CALIBRATION_TOL
    assert _same_diffusion_matrix(mat, cloud, eps)


def test_float32_probe_of_a_nearly_disconnected_graph_finds_lambda2():
    # 180 points along [0, 1] and a knot of 20 at 1.3: at this bandwidth
    # 1 - lambda2 = 3e-9, far below float32's resolution of 1, and lambda3 =
    # 0.99005 stands apart from lambda4 = 0.96269. Undeflated, float32 Lanczos
    # takes the top two eigenvalues for one and returns lambda3 as the second;
    # deflating the known top pair leaves lambda2 on top. The probe is the
    # float32 kernel, as calibration builds it
    rng = np.random.default_rng(0)
    line, knot = np.sort(rng.uniform(0.0, 1.0, 180)), 1.3 + 0.01 * rng.normal(size=20)
    cloud, eps = PointCloud(np.concatenate([line, knot])[:, None]), 0.07
    exact = np.linalg.eigvalsh(_gaussian_diffusion(cloud, eps).values)[-2]
    assert 1e-10 <= 1.0 - exact <= 1e-6
    assert _float32_lambda2(cloud, eps) >= 1.0 - 1e-6


def _float32_lambda2(cloud, eps):
    """lambda2 of the float32 kernel probe that calibration builds at bandwidth eps."""
    return _probe(cloud, math.log(eps), np.float32)[0]


def test_float32_probes_keep_calibration_scale_invariant(monkeypatch):
    # the probe's exponent -sq / epsilon^2 is formed in float64 and only then
    # rounded to float32: squared distances of 1e-48 or 1e42 lie outside
    # float32's range, yet a scaled cloud calibrates to the scaled bandwidth
    # on the same float32 probes
    import dynamap.kernels as kernels_mod

    second, probes = kernels_mod._second_eigenvalue, []

    def recording_probe(sq, x, out):
        probes.append(out.dtype)
        return second(sq, x, out)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", recording_probe)
    points = np.random.default_rng(0).normal(size=(LANCZOS_MIN_N, 2))
    base = calibrated_diffusion_matrix(PointCloud(points), 0.5)[0]
    assert probes and set(probes) == {np.dtype(np.float32)}
    runs = list(probes)
    for scale in (1e-24, 1e21):
        probes.clear()
        eps = calibrated_diffusion_matrix(PointCloud(points * scale), 0.5)[0]
        assert probes == runs and eps / scale == pytest.approx(base, rel=1e-12)


def test_change_scene_15_calibrates_its_nearly_disconnected_member():
    # member 2 holds the 25 planted pixels as a nearly disconnected cluster:
    # its lambda2 lies within 2e-6 of 1 at bandwidths 0.47-0.6, where
    # undeflated float32 probes can read lambda3 and deflated ones read 1.0;
    # the search accepts 0.991626 (the root to 1e-9 is 0.991675)
    result = change_detection_experiment(scene_seed=15)
    assert result.epsilons[2] == pytest.approx(0.991626, rel=1e-5)
    cloud = synthetic_cube_family(15).clouds[2]
    lam2 = np.linalg.eigvalsh(_gaussian_diffusion(cloud, result.epsilons[2]).values)[-2]
    assert abs(lam2 - 0.97) <= CALIBRATION_TOL


# clouds of 150-300 normal points in 1-3 dimensions: float32 probes
_lanczos_clouds = st.builds(
    lambda n, d, seed: PointCloud(np.random.default_rng(seed).normal(size=(n, d))),
    st.integers(LANCZOS_MIN_N, 300), st.integers(1, 3), st.integers(0, 2**16),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(_distinct_clouds, _lanczos_clouds))
def test_lambda2_trend_in_epsilon(cloud):
    # lambda2 runs from ~1 (tiny bandwidth) down to ~0 (huge bandwidth) and
    # never rises on the way, at 1/64 to 64 times the median distance: to
    # 1e-12 on the float64 dense route (at most 40 points), to 1e-6 on the
    # float32 kernel probes (150-300 points; measured worst rise 2.4e-7)
    if cloud.n < LANCZOS_MIN_N:
        lambda2, slack = _lambda2_via_full_path, 1e-12
    else:
        lambda2, slack = _float32_lambda2, 1e-6
    median = math.sqrt(_median_squared_distance(squared_distances(cloud.points)))
    values = [lambda2(cloud, median * 2.0**k) for k in range(-6, 7)]
    assert all(a >= b - slack for a, b in zip(values, values[1:]))
    assert values[0] > 0.9 and values[-1] < 0.1


@settings(max_examples=5, deadline=None, derandomize=True)
@given(_lanczos_clouds, st.floats(0.05, 0.95))
def test_float32_calibrated_lambda2_lies_within_the_tolerance(cloud, target):
    eps, mat = calibrated_diffusion_matrix(cloud, target)
    assert abs(np.linalg.eigvalsh(mat.values)[-2] - target) <= CALIBRATION_TOL
    assert np.array_equal(mat.values, _gaussian_diffusion(cloud, eps).values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(_distinct_clouds, _lanczos_clouds), st.floats(0.95, 0.995))
def test_near_identity_calibrated_lambda2_lies_within_the_tolerance(cloud, target):
    # targets on lambda2's flat shoulder near 1, on float64 probes (at most 40
    # points) and on float32 ones (150-300 points)
    eps, mat = calibrated_diffusion_matrix(cloud, target)
    assert abs(np.linalg.eigvalsh(mat.values)[-2] - target) <= CALIBRATION_TOL
    assert np.array_equal(mat.values, _gaussian_diffusion(cloud, eps).values)


@pytest.mark.parametrize("scene, most", [(11, 13), (15, 15), (1011, 13), (2013, 10), (2020, 10)])
def test_change_scene_calibration_probe_count(monkeypatch, scene, most):
    # the three near-identity members (lambda2 = 0.97) of a change scene: the
    # first starts cold, the others from the member before. The search takes
    # 9, 10, 10, 10 and 10 probes here; the first three bounds are those of a
    # secant and regula falsi search on logit(lambda2), and interpolating
    # lambda2 - target instead took 20 probes on each of those scenes.
    # Scene 1011 once accepted a probe 2.4e-8 inside the tolerance's edge
    import dynamap.kernels as kernels_mod

    probes = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(*args):
        probes.append(1)
        return second(*args)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    result = change_detection_experiment(scene_seed=scene)
    assert len(result.epsilons) == 3 and len(probes) <= most


def test_calibration_peak_memory():
    # the squared distances and a float32 probe, or the median's one n(n-1)/2
    # buffer (1.58 measured); the float64 rebuild overwrites the squared distances
    import scipy.sparse.linalg  # noqa: F401  its first import allocates ~2 n x n
    import scipy.spatial.distance  # noqa: F401  and this one's ~0.5 n x n

    n = 1000
    cloud = sample_torus(TorusSpec(), n, seed=4)
    _, peak = peak_bytes(lambda: _calibrate(cloud, 0.5))
    assert peak <= 1.70 * n * n * 8


def test_float32_probe_allocates_no_n_by_n_temporary():
    # one calibration probe, build plus lambda2, works in its own buffer: the
    # scale pass and the exp write into it, and the operator applies D^{-1/2} to
    # vectors of n (peak 0.05 n^2 * 4 bytes measured, mostly ARPACK's basis)
    import scipy.sparse.linalg  # noqa: F401  its first import allocates ~2 n x n

    n = 1000
    sq = squared_distances(sample_torus(TorusSpec(), n, seed=4).points)
    x, probe = 0.5 * math.log(_median_squared_distance(sq)), np.empty(sq.shape, np.float32)
    (lam2, _), peak = peak_bytes(lambda: _second_eigenvalue(sq, x, probe))
    assert 0.0 < lam2 < 1.0
    assert peak <= 0.125 * n * n * 4  # an eighth of one float32 n x n array


def test_slope_pass_allocates_no_n_by_n_temporary():
    # the slope is one pass over ROW_BLOCK-row blocks of K o S, each a
    # ROW_BLOCK x n float64 temporary of 512 n bytes: an eighth of one float32
    # n x n array from n = 1024 on (peak 0.064 n^2 * 4 bytes measured at n = 2000)
    import scipy.sparse.linalg  # noqa: F401  its first import allocates ~2 n x n

    n = 2000
    sq = squared_distances(sample_torus(TorusSpec(), n, seed=4).points)
    x, probe = 0.5 * math.log(_median_squared_distance(sq)), np.empty(sq.shape, np.float32)
    _, slope = _second_eigenvalue(sq, x, probe)
    dlam2, peak = peak_bytes(slope)
    assert dlam2 < 0.0
    assert peak <= 0.125 * n * n * 4


def _central_difference(cloud, x, h):
    """d lambda2 / dx at x = log(epsilon) by a float64 central difference."""
    lam2 = [
        np.linalg.eigvalsh(_gaussian_diffusion(cloud, math.exp(x + dx)).values)[-2]
        for dx in (h, -h)
    ]
    return (lam2[0] - lam2[1]) / (2.0 * h)


# clouds of 2-60 normal points in 1-3 dimensions: float64 probes, dense route
_float64_clouds = st.builds(
    lambda n, d, seed: PointCloud(np.random.default_rng(seed).normal(size=(n, d))),
    st.integers(2, 60), st.integers(1, 3), st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_float64_clouds, st.floats(-1.0, 1.0))
def test_probe_slope_matches_a_central_difference(cloud, offset):
    # the first-order perturbation slope of a float64 probe, at e^-1 to e times
    # the median distance, against a float64 central difference (measured worst
    # 2.4e-9 over 300 clouds); a slope below 1e-4 is lost to the difference's
    # roundoff (a nearly disconnected graph, whose lambda2 sits within 1e-8 of 1)
    x = _walk_start(cloud) + offset
    reference = _central_difference(cloud, x, 1e-5)
    assume(abs(reference) > 1e-4)
    assert _probe(cloud, x)[1] == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("member", [0, 11])
def test_float32_probe_slope_matches_a_float64_central_difference(member):
    # float32 kernel probes of torus members at their calibrated bandwidths
    # (measured 5.4e-7 at member 0)
    cloud = pinched_torus_family(7, n=300)[0][member]
    x = math.log(calibrated_diffusion_matrix(cloud, 0.5)[0])
    reference = _central_difference(cloud, x, 1e-4)
    assert _probe(cloud, x, np.float32)[1] == pytest.approx(reference, rel=1e-5)


def test_dense_route_slope_from_a_and_sqrt_d_matches_the_kernel_form(monkeypatch):
    # the dense solve leaves the normalized A in the probe, and its slope comes
    # from A and sqrt(d); Lanczos leaves K, and its slope comes from K and w
    import dynamap.kernels as kernels_mod

    cloud = sample_torus(TorusSpec(), 300, seed=4)
    x = _walk_start(cloud)
    refuse_dense_solves(monkeypatch)
    lanczos = _probe(cloud, x)
    monkeypatch.undo()
    monkeypatch.setattr(kernels_mod, "LANCZOS_MIN_N", 10 * cloud.n)
    dense = _probe(cloud, x)
    assert dense[0] == pytest.approx(lanczos[0], abs=1e-12)
    assert dense[1] == pytest.approx(lanczos[1], rel=1e-9)


def _normalized(values):
    inv_sqrt = 1.0 / np.sqrt(values.sum(axis=1))
    return values * np.outer(inv_sqrt, inv_sqrt)


def test_degree_normalized_matches_outer_product():
    # the in-place scaling forms the outer product's products, entry for entry
    cloud = PointCloud(np.random.default_rng(200).normal(size=(200, 3)))
    values = gaussian_kernel(cloud, 1.0).values
    sym = values.copy()
    _degree_normalized(sym)
    assert np.array_equal(sym, _normalized(values))


def _median_via_triu(sq):
    # reference: gather the strict upper triangle through index arrays
    upper = sq[np.triu_indices(sq.shape[0], k=1)]
    return float(np.median(upper[upper > 0.0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ),
    st.integers(0, 4),
)
def test_median_squared_distance_matches_triu_reference(points, copies):
    # coincident points put exact zeros in the triangle; both picks drop them
    pts = np.vstack([points, points[:copies]])
    sq = squared_distances(pts)
    if not np.any(sq > 0.0):
        with pytest.raises(CalibrationError):
            _median_squared_distance(sq)
        return
    assert _median_squared_distance(sq) == _median_via_triu(sq)


def test_median_squared_distance_with_duplicates_across_row_blocks():
    # 300 points, 5 row blocks, with points repeated within and across
    # blocks: their zeros drop out of every block, and the gathered multiset
    # is the triangle's
    pts = np.random.default_rng(5).normal(size=(300, 3))
    pts[[1, 70, 140, 299]] = pts[0]
    pts[[200, 201]] = pts[130]
    sq = squared_distances(pts)
    assert np.sum(sq == 0.0) > 300
    assert _median_squared_distance(sq) == _median_via_triu(sq)


def test_median_squared_distance_torus_members():
    clouds, _ = pinched_torus_family(7, n=300)
    for cloud in clouds[:3]:
        sq = squared_distances(cloud.points)
        assert _median_squared_distance(sq) == _median_via_triu(sq)


def test_second_eigenvalue_lanczos_matches_dense(monkeypatch):
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    eps = calibrated_diffusion_matrix(cloud, 0.5)[0]
    values = _normalized(gaussian_kernel(cloud, eps).values)
    dense = np.linalg.eigvalsh(values)[-2]
    refuse_dense_solves(monkeypatch)
    first = _eigensolve(values, 2, vectors=False)[-2]
    assert abs(first - dense) <= 1e-12
    assert _eigensolve(values, 2, vectors=False)[-2] == first  # fixed start vector: repeatable


@pytest.mark.parametrize("member", [0, 1, 11, 21])
def test_float32_probe_on_near_degenerate_torus_spectra(member, monkeypatch):
    # torus members whose lambda2 and lambda3 lie 0.030-0.036 apart (6-7% of
    # lambda2): at the calibrated bandwidth the deflated float32 Lanczos probe
    # of the kernel, which calibration runs from n = LANCZOS_MIN_N on, finds the
    # dense float64 lambda2 (worst of all 31 members 1.3e-7)
    cloud = pinched_torus_family(7, n=300)[0][member]
    eps, mat = calibrated_diffusion_matrix(cloud, 0.5)
    dense = np.linalg.eigvalsh(mat.values)
    assert dense[-2] - dense[-3] < 0.04
    refuse_dense_solves(monkeypatch)
    assert abs(_float32_lambda2(cloud, eps) - dense[-2]) <= 1e-6


@functools.cache
def _torus_members_1000():
    return pinched_torus_family(7, n=1000)[0]


@pytest.mark.parametrize("member", [0, 1, 11, 21])
def test_rank10_lanczos_on_near_degenerate_torus_spectra(member, monkeypatch):
    # the same members at n = 1000, where lambda2 - lambda3 is 0.015-0.018: the
    # rank-10 decomposition at the calibrated bandwidth, on the Lanczos route,
    # has the dense eigh eigenvalues (measured worst 1.2e-15)
    cloud = _torus_members_1000()[member]
    mat = calibrated_diffusion_matrix(cloud, 0.5)[1]
    dense = np.linalg.eigh(mat.values)[0][::-1][:10]
    assert dense[1] - dense[2] < 0.02
    refuse_dense_solves(monkeypatch)
    assert np.max(np.abs(spectral_decomposition(mat, 10).eigenvalues - dense)) <= 1e-10


def test_near_identity_lambda2_falls_back_to_dense(monkeypatch):
    # lambda2 = 0.99998: Lanczos stalls on the clustered top of the spectrum,
    # gives up after about one dense solve's worth of products, and the dense
    # solve of the whole spectrum answers
    from dynamap.kernels import LANCZOS_MATVECS_PER_N, LANCZOS_NCV

    values = _normalized(near_identity_kernel().values)
    n = values.shape[0]
    dense = float(np.linalg.eigvalsh(values)[-2])
    stats = counting_eigsh(monkeypatch)
    assert _eigensolve(values, 2, vectors=False)[-2] == dense
    assert dense > 0.9999
    assert stats["stalls"] == 1
    assert stats["matvecs"] <= LANCZOS_MATVECS_PER_N * n + 2 * LANCZOS_NCV


def test_stalled_float32_probe_falls_back_to_the_dense_spectrum_less_its_top(monkeypatch):
    # deflated, Lanczos still stalls on the near-identity kernel probe in
    # float32; the probe is normalized in place, and the dense solve's whole
    # spectrum, top included, answers with its second largest eigenvalue
    kernel = near_identity_kernel().values
    dense = float(np.linalg.eigvalsh(_normalized(kernel))[-2])
    # near_identity_kernel's points and bandwidth, a quarter of the median distance
    sq = squared_distances(np.random.default_rng(0).normal(size=(300, 3)))
    x = 0.5 * math.log(np.median(sq[np.triu_indices(300, k=1)]) / 16.0)
    solved, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.dtype) or real(a))
    lam2, _ = _second_eigenvalue(sq, x, np.empty(sq.shape, np.float32))
    assert abs(lam2 - dense) <= 1e-6
    assert solved == [np.float32]


def test_import_leaves_scipy_sparse_unloaded():
    # eigsh and cdist are imported on first use; loading scipy.sparse or
    # scipy.spatial with the package would add 20-120 ms to every import
    src = str(Path(__file__).resolve().parent.parent / "src")
    # and the BLAS lookup waits for the first Lanczos solve: no /proc scan
    code = (
        "import sys, dynamap; from dynamap.kernels import _scipy_openblas; "
        "print('scipy.sparse' in sys.modules, 'scipy.spatial' in sys.modules, "
        "_scipy_openblas.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False 0"


def _torus_operator():
    """A calibrated diffusion matrix on 300 torus points: Lanczos converges."""
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    return calibrated_diffusion_matrix(cloud, 0.5)[1].values


def test_lanczos_runs_scipy_blas_on_one_thread_and_restores_it(monkeypatch):
    import scipy.sparse.linalg as ssl

    values, stalling = _torus_operator(), _normalized(near_identity_kernel().values)
    blas = _scipy_openblas()
    if blas is None:
        pytest.skip("no scipy OpenBLAS in this process")
    get_threads, set_threads = blas
    real, inside = ssl.eigsh, []

    def recording(*args, **kwargs):
        inside.append(get_threads())
        return real(*args, **kwargs)

    def rigged(*args, **kwargs):
        inside.append(get_threads())
        raise RuntimeError("rigged eigsh")

    previous = get_threads()
    try:
        set_threads(2)
        assert get_threads() == 2
        monkeypatch.setattr(ssl, "eigsh", recording)
        _eigensolve(values, 2, vectors=False)  # converges
        assert (inside, get_threads()) == ([1], 2)
        _eigensolve(stalling, 2, vectors=False)  # ArpackNoConvergence, then the dense solve
        assert (inside, get_threads()) == ([1, 1], 2)
        monkeypatch.setattr(ssl, "eigsh", rigged)
        with pytest.raises(RuntimeError, match="rigged"):
            _eigensolve(values, 2, vectors=False)
        assert (inside, get_threads()) == ([1, 1, 1], 2)
    finally:
        set_threads(previous)


def test_one_thread_lanczos_is_bit_identical(monkeypatch):
    # the thread count changes how long ARPACK takes, never what it returns
    values = _torus_operator()
    refuse_dense_solves(monkeypatch)
    pinned = [_eigensolve(values, 2, vectors=False), *_eigensolve(values, 10, vectors=True)]
    monkeypatch.setattr("dynamap.kernels._scipy_openblas", lambda: None)
    free = [_eigensolve(values, 2, vectors=False), *_eigensolve(values, 10, vectors=True)]
    assert all(np.array_equal(a, b) for a, b in zip(pinned, free, strict=True))
