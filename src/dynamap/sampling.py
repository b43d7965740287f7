"""Monte-Carlo harness verifying the square-root sampling rate of both distances.

A single large reference sample stands in for the population; every size-n
trial draws a nested subsample of it that keeps the reference's first three
points, so the tracked point pairs exist at every n. The kernel bandwidths
are fixed across all n within a study: the kernels are functions on the
underlying space, and recalibrating per n would change the kernel family
being sampled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distances import direct_diffusion_distance, direct_global_distance
from .exceptions import DegeneracyError, InputError
from .kernels import DiffusionMatrix
from .operators import _check_count, _check_t

# rows -> the two diffusion matrices, which the study only reads
MatrixBuilder = Callable[[np.ndarray], tuple[DiffusionMatrix, DiffusionMatrix]]

# point pairs (i, j) whose distance is tracked, as indices of the reference
# sample: a point with itself and a pair of distinct points
TRACKED_PAIRS = ((0, 0), (1, 1), (0, 2))
TRACKED_POINTS = 3  # reference points 0-2, the ones the pairs name


@dataclass(frozen=True)
class RateEstimate:
    """Deviation trend of one distance across sample sizes."""

    n_grid: np.ndarray
    mean_deviation: np.ndarray
    spread: np.ndarray
    slope: float
    slope_ci: tuple[float, float]


@dataclass(frozen=True)
class ConvergenceReport:
    """Fitted sampling-error decay for the pointwise and global distances."""

    pointwise: RateEstimate
    global_: RateEstimate
    reference_n: int
    trials: int
    t: int


def _fit_rate(
    name: str, n_grid: np.ndarray, mean_dev: np.ndarray, spread: np.ndarray
) -> RateEstimate:
    zero = np.nonzero(mean_dev <= 0.0)[0]
    if zero.size:
        raise DegeneracyError(
            f"{name} distance: mean deviation is zero at n={n_grid[zero[0]]}, "
            "so no decay rate can be fitted"
        )
    x = np.log(n_grid.astype(float))
    y = np.log(mean_dev)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    half = 1.96 * stderr
    return RateEstimate(
        n_grid=n_grid,
        mean_deviation=mean_dev,
        spread=spread,
        slope=float(slope),
        slope_ci=(float(slope - half), float(slope + half)),
    )


def _sample_distances(rows: np.ndarray, matrix_builder: MatrixBuilder, t: int) -> np.ndarray:
    """The TRACKED_PAIRS distances between a sample's two diffusion matrices,
    then their global distance, by the matrix-power oracles, which only read."""
    mats = tuple(matrix_builder(rows))
    if len(mats) != 2 or not all(isinstance(mat, DiffusionMatrix) for mat in mats):
        raise InputError(f"matrix_builder must return two DiffusionMatrix objects, got "
                         f"{[type(mat).__name__ for mat in mats]}")
    pointwise = [direct_diffusion_distance(*mats, i, j, t) for i, j in TRACKED_PAIRS]
    return np.array([*pointwise, direct_global_distance(*mats, t)])


def convergence_study(
    reference: np.ndarray,
    matrix_builder: MatrixBuilder,
    t: int,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
) -> ConvergenceReport:
    """Estimate how fast the sampled distances approach their reference values.

    reference is the (m, d) reference sample, with m at least 4 x max(n_grid).
    matrix_builder maps a subset of its rows to the two parameters' finished
    diffusion matrices (with bandwidths already fixed), which the study only
    reads. The reference sample and every trial are measured by one routine,
    the oracle distances of TRACKED_PAIRS and the global distance; a trial's
    pointwise deviation is the mean over TRACKED_PAIRS. The rate fit needs at
    least two sample sizes; t, trials and each size are integers.
    """
    t = _check_t(t)
    trials = _check_count("trials", trials, 10)
    sizes = {_check_count("n_grid entry", v, TRACKED_POINTS) for v in n_grid}
    n_grid = np.asarray(sorted(sizes), dtype=int)
    if n_grid.size < 2:
        raise InputError(f"n_grid needs at least two distinct sizes, got {n_grid.tolist()}")
    base = np.asarray(reference, dtype=float)
    m_ref = base.shape[0]
    if m_ref < 4 * int(n_grid.max()):
        raise InputError(
            f"reference sample of {m_ref} points must hold at least "
            f"4 x max(n_grid)={4 * int(n_grid.max())}"
        )

    ref = _sample_distances(base, matrix_builder, t)
    tracked = np.arange(TRACKED_POINTS)
    rest = np.arange(TRACKED_POINTS, m_ref)
    streams = np.random.SeedSequence(seed).spawn(int(n_grid.size) * trials)
    # (pointwise, global) deviation per size and trial; trials are the
    # contiguous axis the mean and spread reduce over
    devs = np.empty((2, n_grid.size, trials))
    for gi, n in enumerate(n_grid):
        for trial in range(trials):
            rng = np.random.default_rng(streams[gi * trials + trial])
            fill = rng.choice(rest, size=int(n) - TRACKED_POINTS, replace=False)
            rows = base[np.concatenate([tracked, fill])]
            dev = np.abs(_sample_distances(rows, matrix_builder, t) - ref)
            devs[:, gi, trial] = np.mean(dev[:-1]), dev[-1]
    mean, spread = devs.mean(axis=2), devs.std(axis=2)

    return ConvergenceReport(
        pointwise=_fit_rate("pointwise", n_grid, mean[0], spread[0]),
        global_=_fit_rate("global", n_grid, mean[1], spread[1]),
        reference_n=m_ref,
        trials=trials,
        t=t,
    )


def report_rows(report: ConvergenceReport) -> np.ndarray:
    """Tabulate a report as (n, pointwise mean, pointwise spread, global mean, global spread)."""
    return np.column_stack(
        [
            report.pointwise.n_grid.astype(float),
            report.pointwise.mean_deviation,
            report.pointwise.spread,
            report.global_.mean_deviation,
            report.global_.spread,
        ]
    )


def report_summary(report: ConvergenceReport) -> str:
    """Human-readable summary of the fitted rates."""
    lines = [
        f"reference_n={report.reference_n} trials={report.trials} t={report.t}",
        (
            f"pointwise slope {report.pointwise.slope:+.4f} "
            f"ci [{report.pointwise.slope_ci[0]:+.4f}, {report.pointwise.slope_ci[1]:+.4f}]"
        ),
        (
            f"global slope {report.global_.slope:+.4f} "
            f"ci [{report.global_.slope_ci[0]:+.4f}, {report.global_.slope_ci[1]:+.4f}]"
        ),
    ]
    for row in report_rows(report):
        lines.append(
            f"n={int(row[0]):6d} pointwise {row[1]:.6e} (+-{row[2]:.2e}) "
            f"global {row[3]:.6e} (+-{row[4]:.2e})"
        )
    return "\n".join(lines)
