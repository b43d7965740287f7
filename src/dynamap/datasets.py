"""Deterministic synthetic data generators: pinched-torus families and a
multi-sensor pixel cube with a planted anomaly."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import InputError
from .kernels import PointCloud

TWO_PI = 2.0 * math.pi

PINCH_ANGLES = (math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
PINCH_STRENGTHS = tuple(1.0 + 0.1 * k for k in range(10))
FULL_SCALE_TORUS_SAMPLES = 7744  # default sample count; reduce at desk scale
ENDMEMBERS = 4  # smooth background spectra mixed into every cube scene
SCENE_BANDS = 124  # bands of the cube scene that each sensor subsamples


@dataclass(frozen=True)
class TorusSpec:
    """Torus geometry with an optional pinch of the lateral radius.

    The lateral radius tapers linearly from `lateral_radius` at the edges of
    the pinch window down to `pinch_radius` at `pinch_angle` and back.
    """

    central_radius: float = 6.0
    lateral_radius: float = 2.0
    pinch_angle: float | None = None
    pinch_radius: float = 2.0
    pinch_half_width: float = math.pi / 4.0

    def __post_init__(self):
        if not 0.0 < self.pinch_radius <= self.lateral_radius < self.central_radius:
            raise InputError("need 0 < pinch radius <= lateral radius < central radius")
        if not 0.0 < self.pinch_half_width < math.pi:
            raise InputError("pinch half-width must lie in (0, pi)")


def lateral_radius(spec: TorusSpec, u: np.ndarray) -> np.ndarray:
    """Lateral radius profile rho(u) over central angles u, piecewise linear in the pinch."""
    u = np.asarray(u, dtype=float)
    rho = np.full(u.shape, spec.lateral_radius)
    if spec.pinch_angle is None:
        return rho
    delta = np.mod(u - spec.pinch_angle + math.pi, TWO_PI) - math.pi
    inside = np.abs(delta) < spec.pinch_half_width
    taper = spec.pinch_radius + (spec.lateral_radius - spec.pinch_radius) * (
        np.abs(delta) / spec.pinch_half_width
    )
    return np.where(inside, taper, rho)


def torus_points(spec: TorusSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Embed angle pairs (u, v) on the (possibly pinched) torus in R^3."""
    rho = lateral_radius(spec, u)
    ring = spec.central_radius + rho * np.cos(v)
    return np.column_stack((ring * np.cos(u), ring * np.sin(u), rho * np.sin(v)))


def sample_torus(spec: TorusSpec, n: int, seed: int) -> PointCloud:
    """n points from angle-uniform (u, v) on [0, 2pi)^2, deterministic per seed.

    Sampling is uniform in the two angles, not in surface area; the same seed
    yields the same angle draws for every spec, so a family built from one
    seed shares its sample coordinates.
    """
    if n < 2:
        raise InputError("need at least two samples")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, TWO_PI, n)
    v = rng.uniform(0.0, TWO_PI, n)
    return PointCloud(torus_points(spec, u, v))


def pinched_torus_family(
    seed: int,
    n: int = FULL_SCALE_TORUS_SAMPLES,
) -> tuple[list[PointCloud], list[tuple[float, float] | None]]:
    """The 31-member family: one unpinched torus plus 3 angles x 10 pinch strengths.

    All members reuse the same angle samples. labels[k] is (pinch angle,
    pinch radius) for pinched members and None for the unpinched one.
    """
    clouds = [sample_torus(TorusSpec(), n, seed)]
    labels: list[tuple[float, float] | None] = [None]
    for angle in PINCH_ANGLES:
        for strength in PINCH_STRENGTHS:
            spec = TorusSpec(pinch_angle=angle, pinch_radius=strength)
            clouds.append(sample_torus(spec, n, seed))
            labels.append((angle, strength))
    return clouds, labels


@dataclass(frozen=True)
class CubeFamily:
    """Synthetic multi-sensor pixel cubes plus the planted-change ground truth."""

    clouds: list[PointCloud]
    change_mask: np.ndarray
    change_epoch: int
    snr_db: list[float]


def _smooth_spectra(rng: np.random.Generator, count: int, bands: int) -> np.ndarray:
    """Smooth positive endmember spectra: low-frequency waves plus one bump each."""
    w = np.linspace(0.0, 1.0, bands)
    out = np.empty((count, bands))
    for k in range(count):
        freq = rng.uniform(0.5, 2.5)
        phase = rng.uniform(0.0, TWO_PI)
        center = rng.uniform(0.15, 0.85)
        width = rng.uniform(0.05, 0.15)
        out[k] = (
            0.5
            + 0.25 * np.sin(TWO_PI * freq * w + phase)
            + 0.35 * np.exp(-((w - center) ** 2) / (2.0 * width**2))
        )
    return out


def _smooth_fields(rng: np.random.Generator, count: int, shape: tuple[int, int]) -> np.ndarray:
    """Spatially smooth abundance maps over the pixel grid, rows sum to one."""
    ys, xs = np.meshgrid(
        np.linspace(0.0, 1.0, shape[0]), np.linspace(0.0, 1.0, shape[1]), indexing="ij"
    )
    logits = np.empty((count, shape[0] * shape[1]))
    for k in range(count):
        field = np.zeros(shape)
        for _ in range(3):
            fy, fx = rng.uniform(0.5, 2.0, 2)
            py, px = rng.uniform(0.0, TWO_PI, 2)
            field += rng.uniform(0.5, 1.5) * np.cos(TWO_PI * (fy * ys + fx * xs) + py + px)
        logits[k] = field.reshape(-1)
    weights = np.exp(2.0 * logits)
    return (weights / weights.sum(axis=0)).T


def synthetic_cube_family(
    scene_seed: int = 11,
    band_counts: Sequence[int] = (30, 50, 70),
    noise_sigma: float = 0.01,
    shape: tuple[int, int] = (32, 32),
    block_size: int = 5,
) -> CubeFamily:
    """One scene observed by several sensors, with a planted anomaly in the last epoch.

    The scene mixes a few smooth endmember spectra over `SCENE_BANDS` bands
    with smooth spatial abundances. Epoch k's sensor, seeded with
    scene_seed * 1000 + 17 * (k + 1), keeps band_counts[k] of those bands:
    it applies a random illumination scale, band subset and band permutation,
    and additive Gaussian noise. A contiguous block of pixels in the last
    epoch swaps to an anomalous endmember; the boolean mask marks those
    pixels. Realized SNR is reported per epoch as
    10 log10(mean(signal^2) / mean(noise^2)).
    """
    if len(band_counts) < 2:
        raise InputError("need at least two sensor epochs")
    for count in band_counts:
        if not 1 <= count <= SCENE_BANDS:
            raise InputError(f"a sensor keeps 1 to {SCENE_BANDS} bands, got {count}")
    if noise_sigma < 0.0:
        raise InputError("noise standard deviation must be nonnegative")
    rows, cols = shape
    n = rows * cols
    if not 1 <= block_size <= min(rows, cols):
        raise InputError(f"change block side {block_size} does not fit the {rows} x {cols} grid")

    rng = np.random.default_rng(scene_seed)
    spectra = _smooth_spectra(rng, ENDMEMBERS, SCENE_BANDS)
    abundances = _smooth_fields(rng, ENDMEMBERS, shape)
    scene = abundances @ spectra  # n x bands

    # anomalous signature: spectrally narrow double spike unlike the smooth backgrounds
    w = np.linspace(0.0, 1.0, SCENE_BANDS)
    anomaly = (
        0.15
        + 1.1 * np.exp(-((w - 0.3) ** 2) / (2.0 * 0.01**2 + 2.0 * 0.03**2))
        + 0.9 * np.exp(-((w - 0.72) ** 2) / (2.0 * 0.03**2))
    )

    change_epoch = len(band_counts) - 1
    top = (rows - block_size) // 2
    left = (cols - block_size) // 2
    grid = np.zeros((rows, cols), dtype=bool)
    grid[top : top + block_size, left : left + block_size] = True
    mask = grid.reshape(-1)

    clouds = []
    snr_db = []
    for epoch, count in enumerate(band_counts):
        data = scene.copy()
        if epoch == change_epoch:
            data[mask] = 0.85 * anomaly[None, :] + 0.15 * data[mask]
        sensor_rng = np.random.default_rng(scene_seed * 1000 + 17 * (epoch + 1))
        scale = sensor_rng.uniform(0.8, 1.2)
        subset = sensor_rng.choice(SCENE_BANDS, size=count, replace=False)
        signal = scale * data[:, subset[sensor_rng.permutation(count)]]
        if noise_sigma > 0.0:
            noise = sensor_rng.normal(0.0, noise_sigma, signal.shape)
            snr_db.append(
                float(10.0 * np.log10(np.mean(signal**2) / np.mean(noise**2)))
            )
            signal = signal + noise
        else:
            snr_db.append(float("inf"))
        clouds.append(PointCloud(signal))
    return CubeFamily(
        clouds=clouds,
        change_mask=mask,
        change_epoch=change_epoch,
        snr_db=snr_db,
    )
