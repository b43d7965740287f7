import math

import numpy as np
import pytest

from dynamap import (
    InputError,
    TorusSpec,
    pinched_torus_family,
    sample_torus,
    synthetic_cube_family,
)
from dynamap.datasets import PINCH_ANGLES, PINCH_STRENGTHS, lateral_radius

TWO_PI = 2.0 * math.pi


def test_unpinched_points_satisfy_torus_equation():
    spec = TorusSpec()
    cloud = sample_torus(spec, 500, seed=1)
    x, y, z = cloud.points.T
    lateral_sq = (np.sqrt(x**2 + y**2) - spec.central_radius) ** 2 + z**2
    np.testing.assert_allclose(lateral_sq, spec.lateral_radius**2, atol=1e-12)


def test_degenerate_pinch_is_bitwise_identical():
    plain = sample_torus(TorusSpec(), 200, seed=2)
    degenerate = sample_torus(
        TorusSpec(pinch_angle=math.pi, pinch_radius=2.0), 200, seed=2
    )
    np.testing.assert_array_equal(plain.points, degenerate.points)


def test_pinch_profile_analytic_values():
    spec = TorusSpec(pinch_angle=math.pi, pinch_radius=1.0, pinch_half_width=math.pi / 4)
    assert lateral_radius(spec, np.array([math.pi]))[0] == 1.0
    # window edges recover the full lateral radius; outside stays flat
    for u in (math.pi - math.pi / 4, math.pi + math.pi / 4, 0.0, math.pi / 2):
        assert lateral_radius(spec, np.array([u]))[0] == 2.0
    # dense scan: the minimum over the window is the pinch radius
    grid = np.linspace(0.0, TWO_PI, 20001)
    rho = lateral_radius(spec, grid)
    assert rho.min() == pytest.approx(1.0, abs=1e-3)
    # sampled points near the pinch have small lateral distance
    cloud = sample_torus(spec, 4000, seed=3)
    x, y, z = cloud.points.T
    lateral = np.sqrt((np.sqrt(x**2 + y**2) - spec.central_radius) ** 2 + z**2)
    assert lateral.min() >= 1.0 - 1e-12
    assert lateral.min() == pytest.approx(1.0, abs=0.05)


def test_pinch_wraps_around_zero():
    spec = TorusSpec(pinch_angle=0.1, pinch_radius=1.0, pinch_half_width=math.pi / 4)
    just_below = lateral_radius(spec, np.array([TWO_PI - 0.05]))[0]
    assert just_below < 2.0  # the window straddles the angular origin


def test_family_layout_and_shared_samples():
    clouds, labels = pinched_torus_family(seed=4, n=150)
    assert len(clouds) == 31 and len(labels) == 31
    assert labels[0] is None
    got = {label for label in labels[1:]}
    expected = {(a, r) for a in PINCH_ANGLES for r in PINCH_STRENGTHS}
    assert got == expected
    base = sample_torus(TorusSpec(), 150, seed=4)
    np.testing.assert_array_equal(clouds[0].points, base.points)
    # points outside every pinch window are shared bitwise across the family
    u = np.arctan2(clouds[0].points[:, 1], clouds[0].points[:, 0]) % TWO_PI
    safe = np.ones(150, dtype=bool)
    for angle in PINCH_ANGLES:
        delta = np.mod(u - angle + math.pi, TWO_PI) - math.pi
        safe &= np.abs(delta) >= math.pi / 4
    assert safe.sum() > 0
    for cloud in clouds[1:]:
        np.testing.assert_array_equal(cloud.points[safe], clouds[0].points[safe])


def test_family_determinism():
    first, _ = pinched_torus_family(seed=5, n=60)
    second, _ = pinched_torus_family(seed=5, n=60)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.points, b.points)


def test_cube_mixed_band_counts_are_usable():
    family = synthetic_cube_family(7, band_counts=(30, 40, 60, 70, 50), shape=(8, 8))
    assert [cloud.d for cloud in family.clouds] == [30, 40, 60, 70, 50]
    assert family.change_epoch == 4


def test_cube_mask_size_and_position():
    family = synthetic_cube_family(8, band_counts=(30, 40), shape=(32, 32), block_size=5)
    assert family.change_mask.sum() == 25
    grid = family.change_mask.reshape(32, 32)
    rows, cols = np.nonzero(grid)
    assert rows.max() - rows.min() == 4 and cols.max() - cols.min() == 4


def test_cube_snr_matches_independent_recompute():
    noisy = synthetic_cube_family(9, band_counts=(20, 25), noise_sigma=0.05, shape=(8, 8))
    clean = synthetic_cube_family(9, band_counts=(20, 25), noise_sigma=0.0, shape=(8, 8))
    assert clean.snr_db == [float("inf")] * 2
    for k in range(2):
        signal = clean.clouds[k].points
        noise = noisy.clouds[k].points - signal
        expected = 10.0 * np.log10(np.mean(signal**2) / np.mean(noise**2))
        assert noisy.snr_db[k] == pytest.approx(expected, abs=1e-9)


def test_cube_determinism_and_validation():
    first = synthetic_cube_family(10, band_counts=(10, 12), shape=(8, 8))
    second = synthetic_cube_family(10, band_counts=(10, 12), shape=(8, 8))
    for a, b in zip(first.clouds, second.clouds):
        np.testing.assert_array_equal(a.points, b.points)
    with pytest.raises(InputError):
        synthetic_cube_family(10, band_counts=(10,))
    with pytest.raises(InputError, match="124"):
        synthetic_cube_family(10, band_counts=(125, 10))
    for block_size in (5, 0):  # too large, or an empty change
        with pytest.raises(InputError, match="grid"):
            synthetic_cube_family(10, shape=(4, 4), block_size=block_size)


def test_torus_spec_validation():
    with pytest.raises(InputError):
        TorusSpec(pinch_radius=3.0)  # pinch radius above lateral radius
    with pytest.raises(InputError):
        TorusSpec(central_radius=1.0)  # lateral radius above central radius
    with pytest.raises(InputError):
        TorusSpec(pinch_half_width=4.0)


def test_sensor_spec_validation():
    with pytest.raises(InputError):
        synthetic_cube_family(band_counts=(0, 5))
    with pytest.raises(InputError):
        synthetic_cube_family(band_counts=(5, 5), noise_sigma=-0.1)
