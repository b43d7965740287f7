"""End-to-end experiment pipelines shared by the CLI and the tests."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import (
    PINCH_ANGLES,
    TWO_PI,
    TorusSpec,
    pinched_torus_family,
    synthetic_cube_family,
    torus_points,
)
from .distances import diffusion_distance_map, global_distance_matrix
from .kernels import (
    DiffusionMatrix, PointCloud, _calibrate, _gaussian_diffusion, calibrated_diffusion_matrix
)
from .metagraph import (
    MEDIAN, META_DIMS, META_S, MetaGraph, meta_decomposition, meta_embedding, meta_kernel
)
from .operators import SpectralDecomposition, spectral_decomposition
from .sampling import ConvergenceReport, convergence_study


def _calibrated_decompositions(
    clouds: Sequence[PointCloud], target_lambda2: float, rank: int
) -> tuple[np.ndarray, list[SpectralDecomposition]]:
    """Per member: the bandwidth calibrated to the common second eigenvalue and
    the rank-`rank` decomposition of its diffusion matrix.

    Member 0's search starts at its median pairwise distance, as
    `calibrated_diffusion_matrix`'s does; each later member's starts at the
    bandwidth accepted for the member before it (a continuation along the
    family: the calibrated bandwidth of a smoothly changing family moves
    little from member to member), and its Newton steps take their slopes from
    its own probes.

    Only one member's n x n arrays are alive at a time: its matrix is
    decomposed inside the calibration and dropped there.
    """
    def decomposed(mat: DiffusionMatrix):  # its lambda2 checks a float32 calibration
        dec = spectral_decomposition(mat, rank)
        return dec, (dec.eigenvalues[1] if rank >= 2 else None)

    epsilons = np.zeros(len(clouds))
    decs = []
    start = None
    for k, cloud in enumerate(clouds):
        epsilons[k], dec = _calibrate(cloud, target_lambda2, start, decomposed)
        start = math.log(epsilons[k])
        decs.append(dec)
    return epsilons, decs


@dataclass(frozen=True)
class TorusExperimentResult:
    """Everything the pinched-torus pipeline produces."""

    labels: list[tuple[float, float] | None]
    epsilons: np.ndarray
    global_distances: np.ndarray
    meta: MetaGraph
    meta_lambda2: float
    coords: np.ndarray

    def distances_to_base(self, angle: float) -> np.ndarray:
        """Family distances from the unpinched torus for one pinch angle,
        ordered by ascending pinch radius."""
        idx = [
            k
            for k, label in enumerate(self.labels)
            if label is not None and label[0] == angle
        ]
        idx.sort(key=lambda k: self.labels[k][1])
        return self.global_distances[0, idx]


def torus_experiment(
    n: int = 1000,
    seed: int = 7,
    target_lambda2: float = 0.5,
    rank: int = 10,
    t: int = 2,
    s: float = META_S,
    dims: int = META_DIMS,
    epsilon: float | str = MEDIAN,
) -> TorusExperimentResult:
    """Pinched-torus family -> per-member kernels -> global distances -> graph of graphs.

    Each member's Gaussian bandwidth is calibrated so its diffusion matrix has
    the same second eigenvalue; the family's pairwise global distances feed a
    Gaussian meta kernel whose diffusion map lays the members out by pinch
    angle and pinch strength.
    """
    clouds, labels = pinched_torus_family(seed, n=n)
    epsilons, decs = _calibrated_decompositions(clouds, target_lambda2, rank)
    dists = global_distance_matrix(decs, t)
    meta = meta_kernel(dists, epsilon=epsilon)
    meta_lambda2 = float(meta_decomposition(meta, 2).eigenvalues[1])
    coords = meta_embedding(meta, s, dims)
    return TorusExperimentResult(
        labels=labels,
        epsilons=epsilons,
        global_distances=dists,
        meta=meta,
        meta_lambda2=meta_lambda2,
        coords=coords,
    )


def monotonicity_inversions(result: TorusExperimentResult) -> dict[float, int]:
    """Per pinch angle, how often the base distance fails to fall as the pinch weakens.

    Distances are ordered by ascending pinch radius (weakening pinch); a
    strictly decreasing sequence has zero inversions.
    """
    out = {}
    for angle in PINCH_ANGLES:
        seq = result.distances_to_base(angle)
        out[angle] = int(np.sum(np.diff(seq) >= 0.0))
    return out


def angle_classification_accuracy(result: TorusExperimentResult) -> float:
    """Nearest-centroid accuracy of pinch-angle recovery from the meta coordinates."""
    pinched = [k for k, label in enumerate(result.labels) if label is not None]
    angles = np.array([result.labels[k][0] for k in pinched])
    coords = result.coords[pinched]
    centroids = {a: coords[angles == a].mean(axis=0) for a in PINCH_ANGLES}
    correct = 0
    for row, angle in zip(coords, angles):
        best = min(PINCH_ANGLES, key=lambda a: float(np.sum((row - centroids[a]) ** 2)))
        if best == angle:
            correct += 1
    return correct / len(pinched)


@dataclass(frozen=True)
class ChangeDetectionResult:
    """Scores, ground truth, and diagnostics of the synthetic change-detection run."""

    scores: np.ndarray
    change_mask: np.ndarray
    change_epoch: int
    snr_db: list[float]
    epsilons: np.ndarray

    def hits_in_top(self, top: int) -> int:
        """Planted pixels among the `top` highest scores."""
        order = np.argsort(self.scores)[::-1][:top]
        return int(self.change_mask[order].sum())


def change_detection_experiment(
    scene_seed: int = 11,
    target_lambda2: float = 0.97,
    **scene,
) -> ChangeDetectionResult:
    """Synthetic multi-sensor change detection via the large-t diffusion distance.

    The scene is synthetic_cube_family(scene_seed, **scene), whose defaults
    are this experiment's defaults too. Each epoch sees it through its own
    random band subset, permutation, illumination, and noise; the last epoch
    carries a planted block anomaly. Pixels are scored by the mean large-t
    (t = math.inf) distance between the changed epoch and every other epoch,
    which needs only the top eigenfunctions.
    """
    family = synthetic_cube_family(scene_seed, **scene)
    epsilons, decs = _calibrated_decompositions(family.clouds, target_lambda2, 2)
    chg = family.change_epoch
    others = [k for k in range(len(decs)) if k != chg]
    scores = np.mean(
        [diffusion_distance_map(decs[chg], decs[k], math.inf) for k in others], axis=0
    )
    return ChangeDetectionResult(
        scores=scores,
        change_mask=family.change_mask,
        change_epoch=chg,
        snr_db=family.snr_db,
        epsilons=epsilons,
    )


def torus_pair_study(
    n_grid: Sequence[int] = (100, 200, 400, 800),
    trials: int = 20,
    reference_n: int = 4000,
    t: int = 1,
    seed: int = 5,
    target_lambda2: float = 0.5,
) -> ConvergenceReport:
    """Convergence study on an unpinched-vs-pinched torus pair.

    Samples are angle pairs; the two kernels embed them on the plain torus and
    on the one pinched to radius 1 at angle pi. Bandwidths are calibrated
    once, on an independent 500-point sample, and then held fixed across
    every sample size; the reference sample holds reference_n angle pairs.

    Each pair of matrices is built on two threads, the pinched one on a
    one-worker pool: scipy's `cdist` and numpy's exp and normalization passes
    release the GIL, so one thread's build overlaps the other's (on a 2-core
    VM a pure-Python thread kept running at 0.5-1.2 of its idle rate during
    4000 x 3 `cdist` calls, and the two row halves of one such matrix took
    23-33 ms on two threads against 42-47 ms on one). Each matrix comes from
    one thread, so outputs are bit-identical to a serial build. Calibrations
    and oracles stay on the calling thread, since `_eigensolve` sets scipy's
    BLAS thread count process-wide.
    """
    # imported here, so that `import dynamap` does not load it
    from concurrent.futures import ThreadPoolExecutor

    specs = (TorusSpec(), TorusSpec(pinch_angle=math.pi, pinch_radius=1.0))
    calib = np.random.default_rng(seed + 1).uniform(0.0, TWO_PI, (500, 2))
    epsilons = [
        calibrated_diffusion_matrix(PointCloud(torus_points(spec, *calib.T)), target_lambda2)[0]
        for spec in specs
    ]

    def matrix_builder(angles: np.ndarray) -> tuple[DiffusionMatrix, DiffusionMatrix]:
        plain, pinched = (PointCloud(torus_points(spec, *angles.T)) for spec in specs)
        pinched_matrix = pool.submit(_gaussian_diffusion, pinched, epsilons[1])
        return _gaussian_diffusion(plain, epsilons[0]), pinched_matrix.result()

    reference = np.random.default_rng(seed).uniform(0.0, TWO_PI, (reference_n, 2))
    with ThreadPoolExecutor(max_workers=1) as pool:
        return convergence_study(
            reference, matrix_builder, t=t, n_grid=n_grid, trials=trials, seed=seed
        )
