"""Deterministic synthetic data generators: torus families, standard-map orbits,
and a multi-sensor pixel cube with a planted anomaly."""
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


@dataclass(frozen=True)
class SensorSpec:
    """One sensor epoch: how many bands it keeps and how it corrupts them.

    seed=None means the identity sensor: the first `band_count` bands in
    order, unit illumination. A seeded sensor draws a random band subset,
    a random permutation, and a random global illumination scale.
    """

    band_count: int
    seed: int | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.band_count < 1:
            raise InputError("band count must be positive")
        if self.noise_sigma < 0.0:
            raise InputError("noise standard deviation must be nonnegative")


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


def standard_map_orbits(alpha: float, grid: int, steps: int) -> list[np.ndarray]:
    """Orbits of the standard map from a grid x grid lattice of initial conditions.

    Updates p <- p + alpha sin(theta) mod 2pi, then theta <- theta + p mod 2pi.
    Each orbit is a (steps + 1) x 2 array of (p, theta) rows starting at the
    initial condition.
    """
    if alpha < 0.0:
        raise InputError("alpha must be nonnegative")
    if grid < 1 or steps < 1:
        raise InputError("grid and steps must be positive")
    ticks = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    orbits = []
    for p0 in ticks:
        for theta0 in ticks:
            orbit = np.empty((steps + 1, 2))
            p, theta = p0, theta0
            orbit[0] = (p, theta)
            for step in range(1, steps + 1):
                # a tiny negative argument mod 2pi rounds up to exactly 2pi
                p = (p + alpha * math.sin(theta)) % TWO_PI
                p = 0.0 if p >= TWO_PI else p
                theta = (theta + p) % TWO_PI
                theta = 0.0 if theta >= TWO_PI else theta
                orbit[step] = (p, theta)
            orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class CubeFamily:
    """Synthetic multi-sensor pixel cubes plus the planted-change ground truth."""

    clouds: list[PointCloud]
    change_mask: np.ndarray
    change_epoch: int | None
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
    scene_seed: int,
    sensors: Sequence[SensorSpec],
    plant_change: bool,
    shape: tuple[int, int] = (32, 32),
    bands: int = 124,
    block_size: int = 5,
) -> CubeFamily:
    """One scene observed by several sensors, optionally with a planted anomaly.

    The scene mixes a few smooth endmember spectra with smooth spatial
    abundances. Each epoch applies its sensor's illumination scale, band
    subset, band permutation, and additive Gaussian noise. With plant_change,
    a contiguous block of pixels in the last epoch swaps to an anomalous
    endmember; the boolean mask marks those pixels. Realized SNR is reported
    per epoch as 10 log10(mean(signal^2) / mean(noise^2)).
    """
    if len(sensors) < 2:
        raise InputError("need at least two sensor epochs")
    for spec in sensors:
        if spec.band_count > bands:
            raise InputError(
                f"sensor keeps {spec.band_count} bands but the scene has only {bands}"
            )
    rows, cols = shape
    n = rows * cols
    if plant_change and (block_size > rows or block_size > cols):
        raise InputError("change block does not fit the pixel grid")

    rng = np.random.default_rng(scene_seed)
    spectra = _smooth_spectra(rng, ENDMEMBERS, bands)
    abundances = _smooth_fields(rng, ENDMEMBERS, shape)
    scene = abundances @ spectra  # n x bands

    # anomalous signature: spectrally narrow double spike unlike the smooth backgrounds
    w = np.linspace(0.0, 1.0, bands)
    anomaly = (
        0.15
        + 1.1 * np.exp(-((w - 0.3) ** 2) / (2.0 * 0.01**2 + 2.0 * 0.03**2))
        + 0.9 * np.exp(-((w - 0.72) ** 2) / (2.0 * 0.03**2))
    )

    mask = np.zeros(n, dtype=bool)
    epoch_of_change = None
    if plant_change:
        epoch_of_change = len(sensors) - 1
        top = (rows - block_size) // 2
        left = (cols - block_size) // 2
        grid = np.zeros((rows, cols), dtype=bool)
        grid[top : top + block_size, left : left + block_size] = True
        mask = grid.reshape(-1)

    clouds = []
    snr_db = []
    for epoch, spec in enumerate(sensors):
        data = scene.copy()
        if plant_change and epoch == epoch_of_change:
            data[mask] = 0.85 * anomaly[None, :] + 0.15 * data[mask]
        if spec.seed is None:
            subset = np.arange(spec.band_count)
            scale = 1.0
            noise_rng = np.random.default_rng(scene_seed + 7919 * (epoch + 1))
        else:
            sensor_rng = np.random.default_rng(spec.seed)
            scale = sensor_rng.uniform(0.8, 1.2)
            subset = sensor_rng.choice(bands, size=spec.band_count, replace=False)
            subset = subset[sensor_rng.permutation(spec.band_count)]
            noise_rng = sensor_rng
        signal = scale * data[:, subset]
        if spec.noise_sigma > 0.0:
            noise = noise_rng.normal(0.0, spec.noise_sigma, signal.shape)
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
        change_epoch=epoch_of_change,
        snr_db=snr_db,
    )
