import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from dynamap.datasets import TorusSpec
from dynamap.experiments import _calibrated_decompositions
from dynamap.kernels import (
    GRID_POINTS,
    MAX_DOUBLINGS,
    SYMMETRY_TILE,
    KernelMatrix,
    _calibrate,
    _degree_normalized,
    _eigensolve,
    _median_squared_distance,
    _scipy_openblas,
    _second_eigenvalue,
    _Start,
    squared_distances,
)
from dynamap.operators import DiffusionMatrix

from conftest import counting_eigsh, near_identity_kernel, random_kernel, refuse_dense_solves


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
    eps = calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)[0]
    # independent recheck through the full decomposition path
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrate_torus_sample():
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    eps = calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)[0]
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrate_high_target():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(size=(120, 8)))
    eps = calibrated_diffusion_matrix(cloud, 0.97, tol=1e-3)[0]
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.97) <= 1e-3


def test_calibrate_rejects_bad_target():
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(InputError):
        calibrated_diffusion_matrix(cloud, 1.5)
    with pytest.raises(InputError):
        calibrated_diffusion_matrix(cloud, 0.5, tol=0.0)


def test_calibrate_coincident_points_fails_with_range():
    cloud = PointCloud(np.zeros((4, 2)))
    with pytest.raises(CalibrationError):
        calibrated_diffusion_matrix(cloud, 0.5)
    # a warm start has no median distance to find the coincidence for it
    with pytest.raises(CalibrationError, match="all points coincide") as info:
        _calibrate(cloud, 0.5, 1e-3, _Start(0.0, -0.5))
    assert info.value.achieved_range is None


def test_calibrate_grid_scan_fallback(monkeypatch):
    # rig a non-monotone profile: the target is crossed only inside a bump,
    # whose wide side the first factor-2 step brackets; a target above the
    # bump's peak sends the walk and the grid scan past every bandwidth
    import dynamap.kernels as kernels_mod

    def rigged(values):
        k12 = values[0, 1] / values[0, 0]  # the probe is normalized
        eps = math.sqrt(-1.0 / math.log(k12)) if 0.0 < k12 < 1.0 else 1e6
        return 0.8 * math.exp(-((math.log(eps)) ** 2))  # peak 0.8 at eps = 1

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps = calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)[0]
    assert abs(rigged(gaussian_kernel(cloud, eps).values) - 0.5) <= 1e-3

    # a target above the bump's peak is unreachable: error reports the range
    with pytest.raises(CalibrationError) as info:
        calibrated_diffusion_matrix(cloud, 0.9, tol=1e-3)
    assert info.value.achieved_range is not None
    assert info.value.achieved_range[1] <= 0.8 + 1e-12


def test_calibrate_grid_scan_crossing_goes_to_illinois(monkeypatch):
    # rig a profile below the target on the narrow side, where the walk looks
    # from the median distance 1, with a smooth bump on the wide side that
    # crosses the target between grid points: the scan hits no point within
    # tol and hands its first crossing to Illinois
    import dynamap.kernels as kernels_mod

    def profile(x):
        return 0.3 + 0.4 * math.exp(-(((x - 2.0) / 0.5) ** 2))

    def rigged(values):
        k12 = values[0, 1] / values[0, 0]  # the probe is normalized
        return profile(math.log(math.sqrt(-1.0 / math.log(k12)))) if 0.0 < k12 < 1.0 else 0.3

    reach = MAX_DOUBLINGS * math.log(2.0)
    grid = np.linspace(-reach, reach, GRID_POINTS)
    scans = np.array([profile(x) for x in grid]) - 0.5
    assert np.all(np.abs(scans) > 1e-3)
    k = int(np.flatnonzero(scans[:-1] * scans[1:] < 0.0)[0])
    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, mat = calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)
    assert grid[k] < math.log(eps) < grid[k + 1]
    assert abs(profile(math.log(eps)) - 0.5) <= 1e-3
    assert abs(rigged(mat.values) - 0.5) <= 1e-3


def test_calibrate_illinois_stall_reports_the_range(monkeypatch):
    # a jump across the target at x = 0.1: the walk brackets it at once, and
    # no bandwidth in the bracket comes within tol, so Illinois gives up
    import dynamap.kernels as kernels_mod

    def rigged(values):
        k12 = values[0, 1] / values[0, 0]  # the probe is normalized
        wide = 0.0 < k12 < 1.0 and math.log(math.sqrt(-1.0 / math.log(k12))) >= 0.1
        return 0.3 if wide or k12 >= 1.0 else 0.7

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    with pytest.raises(CalibrationError, match="refinement stalled") as info:
        calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)
    assert info.value.achieved_range == (0.3, 0.7)


def test_lambda2_trend_in_epsilon():
    # second eigenvalue runs from ~1 (tiny bandwidth) down to ~0 (huge bandwidth)
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.normal(size=(40, 3)))
    values = [_lambda2_via_full_path(cloud, eps) for eps in (0.05, 0.5, 2.0, 8.0, 50.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > 0.9 and values[-1] < 0.1


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


@pytest.mark.parametrize("d", [1, 3, 70])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000])
def test_squared_distances_across_row_blocks(n, d):
    # sizes on both sides of the 64-row block edges, with duplicated rows whose
    # pairs fall in different blocks
    rng = np.random.default_rng(100 * n + d)
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    pts[n // 2] = pts[0]
    pts[-1] = pts[n // 3]
    sq = squared_distances(pts)
    assert np.array_equal(sq, _squared_distances_loop(pts))
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)
    assert sq[0, n // 2] == 0.0 and sq[n // 3, n - 1] == 0.0


def _same_diffusion_matrix(mat, cloud, eps):
    """`mat` is diffusion_matrix(gaussian_kernel(cloud, eps)), bit for bit."""
    ref = diffusion_matrix(gaussian_kernel(cloud, eps))
    return np.array_equal(mat.values, ref.values)


def _calibrate_counting(monkeypatch, cloud, target, tol=1e-3):
    """calibrated_diffusion_matrix's bandwidth and the number of lambda2 probes
    it made; its matrix must be diffusion_matrix's of gaussian_kernel's, and a
    second call must find the same bandwidth."""
    import dynamap.kernels as kernels_mod

    probes = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(values):
        probes.append(1)
        return second(values)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    eps, mat = calibrated_diffusion_matrix(cloud, target, tol)
    assert _same_diffusion_matrix(mat, cloud, eps)
    count = len(probes)
    assert calibrated_diffusion_matrix(cloud, target, tol)[0] == eps
    return eps, count


def _walk_start(cloud):
    """log of the median distance, where the bandwidth search starts."""
    return 0.5 * math.log(_median_squared_distance(squared_distances(cloud.points)))


def _probe_lambda2(cloud, x):
    return _second_eigenvalue(diffusion_matrix(gaussian_kernel(cloud, math.exp(x))).values)


def test_calibrated_kernel_first_probe_hit(monkeypatch):
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    eps, probes = _calibrate_counting(monkeypatch, cloud, _probe_lambda2(cloud, x0))
    assert probes == 1 and eps == math.exp(x0)


def test_calibrated_kernel_walk_hit(monkeypatch):
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x0 = _walk_start(cloud)
    x1 = x0 + math.log(2.0)
    target = _probe_lambda2(cloud, x1)
    assert _probe_lambda2(cloud, x0) - target > 1e-3  # so the first probe misses
    eps, probes = _calibrate_counting(monkeypatch, cloud, target)
    assert probes == 2 and eps == math.exp(x1)


def test_calibrated_kernel_illinois_hit(monkeypatch):
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    eps, probes = _calibrate_counting(monkeypatch, cloud, 0.5)
    steps = (math.log(eps) - _walk_start(cloud)) / math.log(2.0)
    assert probes >= 3 and abs(steps - round(steps)) > 1e-6  # not a walk point
    assert abs(_lambda2_via_full_path(cloud, eps) - 0.5) <= 1e-3


def test_calibrated_kernel_grid_scan_hit(monkeypatch):
    # rig a profile that sits below the target everywhere the walk looks (it
    # walks toward small bandwidths from the median distance 1) and on it only
    # on a plateau at larger bandwidths, which holds one grid point (x = 0.22)
    import dynamap.kernels as kernels_mod

    def rigged(values):
        k12 = values[0, 1] / values[0, 0]  # the probe is normalized
        if not 0.0 < k12 < 1.0:
            return 0.3
        x = math.log(math.sqrt(-1.0 / math.log(k12)))
        return 0.5 if 0.1 <= x <= 0.35 else 0.3

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, probes = _calibrate_counting(monkeypatch, cloud, 0.5)
    reach = MAX_DOUBLINGS * math.log(2.0)
    k = 32  # the plateau's grid point
    grid = np.linspace(-reach, reach, GRID_POINTS)
    assert 0.1 <= grid[k] <= 0.35
    # the scan stops at the hit, and the bandwidth is the one it probed
    assert probes == 1 + MAX_DOUBLINGS + k + 1
    assert eps == math.exp(grid[k])
    # the kernel is the hit's, not that of the grid's last (widest) point
    assert rigged(calibrated_diffusion_matrix(cloud, 0.5)[1].values) == 0.5


def _warm_calibrate(monkeypatch, start, cloud, target, tol=1e-3):
    """_calibrate's output from `start` and the log bandwidth of each lambda2
    probe; its matrix must be diffusion_matrix's of gaussian_kernel's at the
    bandwidth it returns."""
    import dynamap.kernels as kernels_mod

    built, probed = [], []
    gaussian, second = kernels_mod._gaussian_values, kernels_mod._second_eigenvalue

    def recording_build(sq, epsilon, out=None):
        built.append(math.log(epsilon))
        return gaussian(sq, epsilon, out=out)

    def recording_probe(values):
        probed.append(built[-1])
        return second(values)

    monkeypatch.setattr(kernels_mod, "_gaussian_values", recording_build)
    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", recording_probe)
    eps, mat, next_start = _calibrate(cloud, target, tol, start)
    probes = list(probed)
    assert _same_diffusion_matrix(mat, cloud, eps)
    return eps, next_start, probes


def test_warm_start_first_probe_hit(monkeypatch):
    # the start is accepted as it stands and passes on the slope it received
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x = _walk_start(cloud) + 0.3
    start = _Start(x, -0.7)
    eps, next_start, probes = _warm_calibrate(monkeypatch, start, cloud, _probe_lambda2(cloud, x))
    assert len(probes) == 1 and eps == math.exp(x)
    assert next_start == start


def test_warm_start_secant_step_hit(monkeypatch):
    # the slope through the start and the root sizes the first step exactly
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    root = _walk_start(cloud)
    x = root - 0.1
    target = _probe_lambda2(cloud, root)
    gap = _probe_lambda2(cloud, x) - target
    assert gap > 1e-3  # the start misses, on the narrow side
    eps, next_start, probes = _warm_calibrate(monkeypatch, _Start(x, -gap / 0.1), cloud, target)
    assert len(probes) == 2 and probes[1] == pytest.approx(root, abs=1e-12)
    assert math.log(eps) == pytest.approx(root, abs=1e-12)
    assert eps == math.exp(next_start.log_epsilon)
    secant = (_probe_lambda2(cloud, probes[1]) - _probe_lambda2(cloud, x)) / (probes[1] - x)
    assert next_start.slope == pytest.approx(secant, rel=1e-9) and secant < 0.0


def test_warm_start_short_secant_step_then_walk_and_illinois(monkeypatch):
    # a slope 1000 times too steep makes a first step of 1e-3, short of the
    # root; the factor-2 walk then brackets it and Illinois refines inside
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    root = _walk_start(cloud)
    x = root - 0.5
    target = _probe_lambda2(cloud, root)
    gap = _probe_lambda2(cloud, x) - target
    eps, _, probes = _warm_calibrate(monkeypatch, _Start(x, -1e3 * gap), cloud, target)
    assert probes[1] == pytest.approx(x + 1e-3, abs=1e-12)
    assert probes[2] == pytest.approx(probes[1] + math.log(2.0), abs=1e-12)
    assert probes[2] > root
    assert abs(_probe_lambda2(cloud, probes[2]) - target) > 1e-3  # the walk misses
    assert len(probes) >= 4
    assert all(probes[1] < p < probes[2] for p in probes[3:])
    assert math.log(eps) == pytest.approx(probes[-1], abs=1e-12)
    assert abs(_lambda2_via_full_path(cloud, eps) - target) <= 1e-3


@pytest.mark.parametrize("slope", [None, 0.0, 0.4])
def test_warm_start_without_negative_slope_steps_by_log2(monkeypatch, slope):
    cloud = PointCloud(np.random.default_rng(21).normal(size=(40, 3)))
    x = _walk_start(cloud) - 0.3
    _, _, probes = _warm_calibrate(monkeypatch, _Start(x, slope), cloud, 0.5)
    assert _probe_lambda2(cloud, x) > 0.5 + 1e-3  # so the first step widens
    assert probes[1] == pytest.approx(x + math.log(2.0), abs=1e-12)


def test_warm_start_grid_scan_is_centred_on_the_start(monkeypatch):
    # rig a profile below the target everywhere except on a plateau around one
    # point of the grid centred on the start (x = 3, where the median distance
    # would put it at 0); the walk heads the other way, so the scan finds it
    import dynamap.kernels as kernels_mod

    x = 3.0
    reach = MAX_DOUBLINGS * math.log(2.0)
    grid = np.linspace(x - reach, x + reach, GRID_POINTS)

    def rigged(values):
        k12 = values[0, 1] / values[0, 0]  # the probe is normalized
        if not 0.0 < k12 < 1.0:
            return 0.3
        return 0.5 if abs(math.log(math.sqrt(-1.0 / math.log(k12))) - grid[40]) < 0.05 else 0.3

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", rigged)
    cloud = PointCloud(np.array([[0.0], [1.0]]))
    eps, next_start, probes = _warm_calibrate(monkeypatch, _Start(x, None), cloud, 0.5)
    assert len(probes) == 1 + MAX_DOUBLINGS + 41  # the scan stops at the hit
    assert probes[1 + MAX_DOUBLINGS :] == pytest.approx(list(grid[:41]), abs=1e-12)
    assert eps == math.exp(grid[40]) and next_start.log_epsilon == grid[40]
    # the slope handed on is measured next to the hit, from the point before it
    assert next_start.slope == pytest.approx(0.2 / (grid[40] - grid[39]), rel=1e-12)


def test_family_calibration_warm_starts_from_the_previous_member(monkeypatch):
    # member 0 starts cold, as calibrated_diffusion_matrix does; each later
    # member starts at the bandwidth of the one before, and the family needs at
    # most 4 probes for member 0 and 2 for each other member, where cold starts
    # need more
    import dynamap.kernels as kernels_mod

    clouds = pinched_torus_family(7, n=300)[0][:7]
    probes = []
    second = kernels_mod._second_eigenvalue

    def counting_probe(values):
        probes.append(1)
        return second(values)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    epsilons, decs = _calibrated_decompositions(clouds, 0.5, 1e-3, 2)
    warm = len(probes)
    probes.clear()
    cold = [calibrated_diffusion_matrix(cloud, 0.5, 1e-3)[0] for cloud in clouds]
    assert epsilons[0] == cold[0]
    for cloud, eps, dec in zip(clouds, epsilons, decs):
        lam2 = np.linalg.eigvalsh(_normalized(gaussian_kernel(cloud, eps).values))[-2]
        assert abs(lam2 - 0.5) <= 1e-3
        assert dec.eigenvalues[1] == pytest.approx(lam2, abs=1e-10)
    assert warm <= 4 + 2 * (len(clouds) - 1) < len(probes) - 1


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
    # its probe, normalized where it was built, or the median's gathered
    # positive upper triangle (the row pieces and their concatenation); a
    # second n x n normalized copy of the probe would cross the bound
    import scipy.sparse.linalg  # noqa: F401  its first import allocates ~2 n x n

    n = 1000
    clouds = pinched_torus_family(7, n=n)[0][:3]
    tracemalloc.start()
    try:
        _calibrated_decompositions(clouds, 0.5, 1e-3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8


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
    # Lanczos route at this size: a dense solve would mean Lanczos stalled
    import dynamap.kernels as kernels_mod

    probes = []
    dense = []
    second, dense_solve = kernels_mod._second_eigenvalue, kernels_mod.eigvalsh

    def counting_probe(values):
        probes.append(1)
        return second(values)

    def counting_dense(*args, **kwargs):
        dense.append(1)
        return dense_solve(*args, **kwargs)

    monkeypatch.setattr(kernels_mod, "_second_eigenvalue", counting_probe)
    monkeypatch.setattr(kernels_mod, "eigvalsh", counting_dense)
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    calibrated_diffusion_matrix(cloud, 0.5, tol=1e-3)
    assert not dense  # so Lanczos never stalled
    assert 1 <= len(probes) <= 8


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
    first = _second_eigenvalue(values)
    assert abs(first - dense) <= 1e-12
    assert _second_eigenvalue(values) == first  # fixed start vector: repeatable


def test_near_identity_lambda2_falls_back_to_dense(monkeypatch):
    # lambda2 = 0.99998: Lanczos stalls on the clustered top of the spectrum,
    # gives up after about one dense solve's worth of products, and the dense
    # solve of the whole spectrum answers
    from dynamap.kernels import LANCZOS_MATVECS_PER_N, LANCZOS_NCV

    values = _normalized(near_identity_kernel().values)
    n = values.shape[0]
    dense = float(np.linalg.eigvalsh(values)[-2])
    stats = counting_eigsh(monkeypatch)
    assert _second_eigenvalue(values) == dense
    assert dense > 0.9999
    assert stats["stalls"] == 1
    assert stats["matvecs"] <= LANCZOS_MATVECS_PER_N * n + 2 * LANCZOS_NCV


def test_import_leaves_scipy_sparse_unloaded():
    # eigsh is imported on first use; loading scipy.sparse with the package
    # would add 20-30 ms to every import
    src = str(Path(__file__).resolve().parent.parent / "src")
    # and the BLAS lookup waits for the first Lanczos solve: no /proc scan
    code = (
        "import sys, dynamap; from dynamap.kernels import _scipy_openblas; "
        "print('scipy.sparse' in sys.modules, _scipy_openblas.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False 0"


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
        _second_eigenvalue(values)  # converges
        assert (inside, get_threads()) == ([1], 2)
        _second_eigenvalue(stalling)  # ArpackNoConvergence, then the dense solve
        assert (inside, get_threads()) == ([1, 1], 2)
        monkeypatch.setattr(ssl, "eigsh", rigged)
        with pytest.raises(RuntimeError, match="rigged"):
            _second_eigenvalue(values)
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
