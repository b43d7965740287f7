import math
import threading

import numpy as np
import pytest

from dynamap import DegeneracyError, InputError, convergence_study, experiments, gaussian_kernel
from dynamap.datasets import TWO_PI, TorusSpec, torus_points
from dynamap.kernels import PointCloud, _gaussian_diffusion, calibrated_diffusion_matrix
from dynamap.sampling import _sample_distances, report_rows, report_summary

from conftest import peak_bytes


def _gaussian_pair_builder(eps_a, eps_b, shift):
    def builder(points):
        return _gaussian_diffusion(PointCloud(points), eps_a), _gaussian_diffusion(
            PointCloud(points + shift), eps_b
        )

    return builder


def _plane_sample(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, 2))


def test_identical_kernels_refuse_a_zero_deviation():
    # both kernels are one kernel, so every sampled global distance equals
    # the reference's zero exactly and no decay rate exists
    with pytest.raises(DegeneracyError, match=r"global distance.*n=8"):
        convergence_study(
            _plane_sample(64, 0),
            _gaussian_pair_builder(1.0, 1.0, 0.0),
            t=1,
            n_grid=[8, 16],
            trials=10,
            seed=7,
        )


def test_one_matrix_returned_twice_is_left_as_it_is():
    # the study only reads what its builder returns: one read-only matrix for
    # both parameters gives a zero global distance at every n, which the fit
    # refuses, and no write on the way
    def builder(points):
        mat = _gaussian_diffusion(PointCloud(points), 1.0)
        mat.values.flags.writeable = False
        return mat, mat

    with pytest.raises(DegeneracyError, match=r"global distance.*n=8"):
        convergence_study(_plane_sample(64, 0), builder, t=1, n_grid=[8, 16], trials=10, seed=7)


def test_validation_errors():
    reference = _plane_sample(64, 1)
    build = _gaussian_pair_builder(1.0, 1.0, 0.1)
    with pytest.raises(InputError, match="trials"):
        convergence_study(reference, build, 1, [8, 16], trials=5, seed=0)
    with pytest.raises(InputError, match="4 x max"):
        convergence_study(reference, build, 1, [16, 32], trials=10, seed=0)
    # a builder of kernels, or of one matrix, used to fail on a missing attribute
    for bad in (lambda points: (gaussian_kernel(PointCloud(points), 1.0),) * 2,
                lambda points: build(points)[:1]):
        with pytest.raises(InputError, match="two DiffusionMatrix objects"):
            convergence_study(reference, bad, 1, [8, 16], trials=10, seed=0)


@pytest.mark.parametrize("name, kwargs", [
    ("trials", {"trials": 12.0}),
    ("n_grid", {"n_grid": [8.9, 16]}),
    ("n_grid", {"n_grid": [True, 8, 16]}),
    ("diffusion time", {"t": 1.0}),
    ("diffusion time", {"t": 0}),
])
def test_counts_must_be_integers(name, kwargs):
    # trials=12.0 used to fail in np.empty, n_grid=[8.9, 16] ran at n = 8 and
    # True counted as 1; a float t failed only after the reference was built
    def refuse(points):
        raise AssertionError("no matrix is built for a refused count")

    args = {"t": 1, "n_grid": [8, 16], "trials": 12, **kwargs}
    with pytest.raises(InputError, match=name):
        convergence_study(_plane_sample(64, 1), refuse, seed=0, **args)


@pytest.mark.parametrize("n_grid", [[16], [16, 16], [], [2, 16]])
def test_n_grid_needs_two_sizes_above_the_tracked_points(n_grid):
    with pytest.raises(InputError, match="n_grid"):
        convergence_study(
            _plane_sample(64, 1), _gaussian_pair_builder(1.0, 1.0, 0.1), 1, n_grid,
            trials=10, seed=0,
        )


def test_deviations_decay_with_sample_size():
    report = convergence_study(
        _plane_sample(512, 3),
        _gaussian_pair_builder(0.8, 0.8, 0.3),
        t=1,
        n_grid=[32, 64, 128],
        trials=12,
        seed=3,
    )
    assert np.all(report.pointwise.mean_deviation > 0.0)
    assert np.all(report.global_.mean_deviation > 0.0)
    # decaying trend; the sharp band is asserted at scale in the acceptance suite
    assert report.pointwise.slope < -0.1
    assert report.global_.slope < -0.1
    lo, hi = report.global_.slope_ci
    assert lo < report.global_.slope < hi


def test_report_serialization_helpers():
    report = convergence_study(
        _plane_sample(256, 4),
        _gaussian_pair_builder(0.8, 0.8, 0.3),
        t=1,
        n_grid=[32, 64],
        trials=10,
        seed=4,
    )
    rows = report_rows(report)
    assert rows.shape == (2, 5)
    np.testing.assert_array_equal(rows[:, 0], [32.0, 64.0])
    text = report_summary(report)
    assert "pointwise slope" in text and "global slope" in text and "n=" in text


def test_sample_distances_peak_is_two_matrices():
    # the builder makes each diffusion matrix in one n x n array, and the
    # global oracle sums row blocks: a copy or a whole difference would cross
    import scipy.spatial.distance  # noqa: F401  its first import allocates ~2.6 n x n

    n = 1000
    rows = _plane_sample(n, 5)
    build = _gaussian_pair_builder(0.8, 0.8, 0.3)
    _, peak = peak_bytes(lambda: _sample_distances(rows, build, 1))
    assert peak <= 2.25 * n * n * 8


# a small torus pair study: two sizes, the fewest trials, a 4 x 80 reference
SMALL_PAIR_STUDY = {"n_grid": (40, 80), "trials": 10, "reference_n": 320, "seed": 5}


def test_torus_pair_study_matches_a_serial_build():
    # the study builds each pair of matrices on two threads; rebuilt here one
    # matrix after the other, in the order plain, pinched, it gives the same bits
    seed = SMALL_PAIR_STUDY["seed"]
    specs = (TorusSpec(), TorusSpec(pinch_angle=math.pi, pinch_radius=1.0))
    calib = np.random.default_rng(seed + 1).uniform(0.0, TWO_PI, (500, 2))
    epsilons = [
        calibrated_diffusion_matrix(PointCloud(torus_points(spec, *calib.T)), 0.5)[0]
        for spec in specs
    ]

    def serial_builder(angles):
        clouds = (PointCloud(torus_points(spec, *angles.T)) for spec in specs)
        return tuple(map(_gaussian_diffusion, clouds, epsilons))

    reference = np.random.default_rng(seed).uniform(
        0.0, TWO_PI, (SMALL_PAIR_STUDY["reference_n"], 2)
    )
    serial = convergence_study(reference, serial_builder, t=1, n_grid=SMALL_PAIR_STUDY["n_grid"],
                               trials=SMALL_PAIR_STUDY["trials"], seed=seed)
    threaded = experiments.torus_pair_study(**SMALL_PAIR_STUDY)
    np.testing.assert_array_equal(report_rows(threaded), report_rows(serial))


@pytest.mark.parametrize("failing_side", ["worker", "caller"])
def test_torus_pair_study_raises_a_build_error_and_leaves_no_thread(monkeypatch, failing_side):
    # the pinched matrix is built on the pool's worker, the plain one on the
    # calling thread; either one's error reaches the caller as it was raised,
    # and the pool's thread is gone once the study returns
    caller = threading.current_thread()
    build = experiments._gaussian_diffusion

    def failing(cloud, epsilon):
        on_worker = threading.current_thread() is not caller
        if on_worker == (failing_side == "worker"):
            raise DegeneracyError(f"{failing_side} build failed")
        return build(cloud, epsilon)

    monkeypatch.setattr(experiments, "_gaussian_diffusion", failing)
    before = threading.active_count()
    with pytest.raises(DegeneracyError, match=f"{failing_side} build failed"):
        experiments.torus_pair_study(**SMALL_PAIR_STUDY)
    assert threading.active_count() == before
