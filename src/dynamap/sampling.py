"""Monte-Carlo harness verifying the square-root sampling rate of both distances.

A single large reference run stands in for the population values; every
size-n trial draws a nested subsample of the reference sample so the tracked
point pairs exist at every n. The kernel bandwidths are fixed across all n
within a study: the kernels are functions on the underlying space, and
recalibrating per n would change the kernel family being sampled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distances import direct_diffusion_distance, direct_global_distance
from .exceptions import InputError
from .kernels import KernelMatrix
from .operators import diffusion_matrix

Generator = Callable[[int, int], np.ndarray]
KernelBuilder = Callable[[np.ndarray], tuple[KernelMatrix, KernelMatrix]]


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


def _fit_rate(n_grid: np.ndarray, mean_dev: np.ndarray, spread: np.ndarray) -> RateEstimate:
    if np.any(mean_dev <= 0.0) or n_grid.size < 2:
        return RateEstimate(n_grid, mean_dev, spread, float("nan"), (float("nan"), float("nan")))
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


def convergence_study(
    generator: Generator,
    kernel_builder: KernelBuilder,
    t: int,
    n_grid: Sequence[int],
    trials: int,
    reference_n: int,
    tracked_pairs: Sequence[tuple[int, int]],
    seed: int,
) -> ConvergenceReport:
    """Estimate how fast the sampled distances approach their reference values.

    generator(n, seed) returns the base sample as an (m, d) array with
    m == n, or m < n when the underlying space holds fewer points.
    kernel_builder maps a base-sample subset to the two parameter kernels
    (with bandwidths already fixed). tracked_pairs index into the reference
    sample; nesting guarantees they survive into every subsample.
    """
    n_grid = np.asarray(sorted(set(int(v) for v in n_grid)), dtype=int)
    if n_grid.size == 0:
        raise InputError("n_grid must be nonempty")
    if trials < 10:
        raise InputError(f"need at least 10 trials, got {trials}")
    if reference_n < 4 * int(n_grid.max()):
        raise InputError(
            f"reference_n={reference_n} must be at least 4 x max(n_grid)={4 * int(n_grid.max())}"
        )
    if not tracked_pairs:
        raise InputError("tracked_pairs must be nonempty")

    base = np.asarray(generator(reference_n, seed), dtype=float)
    m_ref = base.shape[0]
    if int(n_grid.max()) > m_ref:
        raise InputError("n_grid exceeds the available reference sample")
    tracked = sorted({idx for pair in tracked_pairs for idx in pair})
    if tracked and (min(tracked) < 0 or max(tracked) >= m_ref):
        raise InputError("tracked pair indices outside the reference sample")
    if len(tracked) > int(n_grid.min()):
        raise InputError("more tracked points than the smallest subsample size")
    position = {ref_idx: pos for pos, ref_idx in enumerate(tracked)}

    # each reference kernel (128 MB at reference_n = 4000) is dropped as soon
    # as its diffusion matrix exists, which lowers the study's peak memory
    kern_a, kern_b = kernel_builder(base)
    mat_a = diffusion_matrix(kern_a)
    del kern_a
    mat_b = diffusion_matrix(kern_b)
    del kern_b
    ref_pointwise = np.array(
        [direct_diffusion_distance(mat_a, mat_b, i, j, t) for i, j in tracked_pairs]
    )
    ref_global = direct_global_distance(mat_a, mat_b, t)
    del mat_a, mat_b

    rest = np.setdiff1d(np.arange(m_ref), np.asarray(tracked, dtype=int))
    streams = np.random.SeedSequence(seed).spawn(int(n_grid.size) * trials)

    mean_pt = np.zeros(n_grid.size)
    spread_pt = np.zeros(n_grid.size)
    mean_gl = np.zeros(n_grid.size)
    spread_gl = np.zeros(n_grid.size)
    for gi, n in enumerate(n_grid):
        pt_devs = np.zeros(trials)
        gl_devs = np.zeros(trials)
        for trial in range(trials):
            rng = np.random.default_rng(streams[gi * trials + trial])
            fill = rng.choice(rest, size=int(n) - len(tracked), replace=False)
            subset = np.concatenate([np.asarray(tracked, dtype=int), fill])
            sub_a, sub_b = kernel_builder(base[subset])
            sm_a = diffusion_matrix(sub_a)
            sm_b = diffusion_matrix(sub_b)
            devs = [
                abs(
                    direct_diffusion_distance(sm_a, sm_b, position[i], position[j], t)
                    - ref_pointwise[k]
                )
                for k, (i, j) in enumerate(tracked_pairs)
            ]
            pt_devs[trial] = float(np.mean(devs))
            gl_devs[trial] = abs(direct_global_distance(sm_a, sm_b, t) - ref_global)
        mean_pt[gi] = pt_devs.mean()
        spread_pt[gi] = pt_devs.std()
        mean_gl[gi] = gl_devs.mean()
        spread_gl[gi] = gl_devs.std()

    return ConvergenceReport(
        pointwise=_fit_rate(n_grid, mean_pt, spread_pt),
        global_=_fit_rate(n_grid, mean_gl, spread_gl),
        reference_n=reference_n,
        trials=trials,
        t=int(t),
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
