import numpy as np
import pytest

import dynamap.sampling as sampling_mod
from dynamap import (
    DegeneracyError, InputError, convergence_study, diffusion_matrix, gaussian_kernel,
)
from dynamap.kernels import PointCloud
from dynamap.sampling import _sample_distances, report_rows, report_summary

from conftest import peak_bytes


def _gaussian_pair_builder(eps_a, eps_b, shift):
    def builder(points):
        cloud_a = PointCloud(points)
        cloud_b = PointCloud(points + shift)
        return gaussian_kernel(cloud_a, eps_a), gaussian_kernel(cloud_b, eps_b)

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


def test_validation_errors():
    reference = _plane_sample(64, 1)
    build = _gaussian_pair_builder(1.0, 1.0, 0.1)
    with pytest.raises(InputError, match="trials"):
        convergence_study(reference, build, 1, [8, 16], trials=5, seed=0)
    with pytest.raises(InputError, match="4 x max"):
        convergence_study(reference, build, 1, [16, 32], trials=10, seed=0)


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
    # the builder's two kernels become the diffusion matrices in place, and the
    # global oracle sums row blocks: a copy or a whole difference would cross
    n = 1000
    rows = _plane_sample(n, 5)
    build = _gaussian_pair_builder(0.8, 0.8, 0.3)
    _, peak = peak_bytes(lambda: _sample_distances(rows, build, 1))
    assert peak <= 2.25 * n * n * 8


def test_sample_distances_normalize_in_place_bit_for_bit(monkeypatch):
    rows = _plane_sample(130, 6)
    build = _gaussian_pair_builder(0.8, 0.6, 0.3)
    seen = []

    def recording(mat_a, mat_b, t):
        seen.extend(mat.values.copy() for mat in (mat_a, mat_b))
        return 0.0

    monkeypatch.setattr(sampling_mod, "direct_global_distance", recording)
    _sample_distances(rows, build, 2)
    assert len(seen) == 2
    for got, kern in zip(seen, build(rows)):
        assert np.array_equal(got, diffusion_matrix(kern).values)
