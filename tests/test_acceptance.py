"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
verdict lines. The two experiment-scale criteria take about a minute each.
"""
import math
import sys
import time

import numpy as np
import pytest

from dynamap import (
    canonical_subgraph_basis,
    common_embedding,
    diffusion_distance,
    diffusion_map,
    direct_diffusion_distance,
    direct_global_distance,
    global_diffusion_distance,
    gram_matrix,
    reference_subgraph_basis,
    subgraph_diffusion_distance,
    subgraph_rotation,
)
from dynamap.experiments import (
    angle_classification_accuracy,
    change_detection_experiment,
    monotonicity_inversions,
    torus_experiment,
    torus_pair_study,
)
from dynamap.kernels import PointCloud, gaussian_kernel
from dynamap.operators import SpectralDecomposition, diffusion_matrix, spectral_decomposition

from conftest import random_instance


@pytest.fixture(autouse=True)
def _emit_verdicts(capfd):
    # verdict lines must reach the terminal even under default capture
    yield
    out, err = capfd.readouterr()
    with capfd.disabled():
        sys.stdout.write(out)
        sys.stderr.write(err)


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def _random_pairs(count=100):
    """The shared instance set: seeded random kernel pairs with n <= 12."""
    for seed in range(count):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(4, 13))
        mat_a, dec_a = random_instance(n, seed=20_000 + seed)
        mat_b, dec_b = random_instance(n, seed=30_000 + seed)
        yield n, mat_a, dec_a, mat_b, dec_b


def test_criterion_1_pointwise_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n, mat_a, dec_a, mat_b, dec_b in _random_pairs(100):
        rng = np.random.default_rng(n)
        pairs = {(0, 0), (n - 1, n - 1), tuple(rng.integers(0, n, 2))}
        for t in (1, 2, 5):
            for i, j in pairs:
                spec = diffusion_distance(dec_a, dec_b, int(i), int(j), t)
                direct = direct_diffusion_distance(mat_a, mat_b, int(i), int(j), t)
                worst = max(worst, abs(spec - direct))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "pointwise spectral vs matrix-power oracle",
        worst <= 1e-8 and elapsed < 5.0,
        f"max dev {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_global_oracle_equivalence():
    worst = 0.0
    for n, mat_a, dec_a, mat_b, dec_b in _random_pairs(100):
        for t in (1, 2, 5):
            spec = global_diffusion_distance(dec_a, dec_b, t)
            direct = direct_global_distance(mat_a, mat_b, t)
            worst = max(worst, abs(spec - direct))
    _verdict(
        2,
        "global spectral vs Frobenius oracle",
        worst <= 1e-8,
        f"max dev {worst:.3e}",
    )


def test_criterion_3_common_embedding_identity():
    worst_dist = 0.0
    worst_defect = 0.0
    for trial in range(6):
        rng = np.random.default_rng(40_000 + trial)
        size = int(rng.integers(3, 5))
        n = int(rng.integers(5, 11))
        family = [random_instance(n, seed=50_000 + 10 * trial + k)[1] for k in range(size)]
        gamma = int(rng.integers(size))
        t = int(rng.integers(1, 4))
        rotated = common_embedding(family, gamma, t)
        for a in range(size):
            rot = gram_matrix(family[gamma], family[a])
            worst_defect = max(
                worst_defect,
                float(np.max(np.abs(rot.T @ rot - np.eye(rot.shape[1])))),
            )
            for b in range(size):
                for x in range(n):
                    for y in range(n):
                        expected = diffusion_distance(family[a], family[b], x, y, t)
                        got = float(
                            np.linalg.norm(rotated[a][x] - rotated[b][y])
                        )
                        worst_dist = max(worst_dist, abs(got - expected))
    _verdict(
        3,
        "common-embedding identity and rotation isometry",
        worst_dist <= 1e-8 and worst_defect <= 1e-6,
        f"max distance dev {worst_dist:.3e}, max isometry defect {worst_defect:.3e}",
    )


def test_criterion_4_asymptotic_formulas():
    worst_pt = 0.0
    worst_gl = 0.0
    for seed in range(20):
        _, dec_a = random_instance(7, seed=60_000 + seed)
        _, dec_b = random_instance(7, seed=70_000 + seed)
        for i, j in ((0, 0), (2, 5), (6, 1)):
            limit = diffusion_distance(dec_a, dec_b, i, j, 400)
            worst_pt = max(
                worst_pt, abs(limit - diffusion_distance(dec_a, dec_b, i, j, math.inf))
            )
        g = float(dec_a.eigenfunctions[:, 0] @ dec_b.eigenfunctions[:, 0]) / 7.0
        closed_form = math.sqrt(2.0 * (1.0 - g * g))
        limit_gl = global_diffusion_distance(dec_a, dec_b, 400)
        worst_gl = max(worst_gl, abs(limit_gl - closed_form))
        worst_gl = max(
            worst_gl, abs(global_diffusion_distance(dec_a, dec_b, math.inf) - closed_form)
        )
    _verdict(
        4,
        "large-t limits of pointwise and global distances",
        worst_pt <= 1e-5 and worst_gl <= 1e-5,
        f"pointwise dev {worst_pt:.3e}, global dev {worst_gl:.3e}",
    )


def test_criterion_5_subgraph_distance_and_rotation():
    worst_full = 0.0
    for seed in range(10):
        mat_a, _ = random_instance(6, seed=80_000 + seed)
        mat_b, _ = random_instance(6, seed=90_000 + seed)
        idx = list(range(6))
        for t in (1, 2):
            for i, j in ((0, 0), (2, 4)):
                sub = subgraph_diffusion_distance(mat_a, mat_b, idx, idx, i, j, t)
                std = direct_diffusion_distance(mat_a, mat_b, i, j, t)
                worst_full = max(worst_full, abs(sub - std))

    worst_partial = 0.0
    for seed in range(10):
        mat_a, dec_a = random_instance(6, seed=81_000 + seed)
        mat_b, dec_b = random_instance(5, seed=91_000 + seed)
        idx_a, idx_b = [0, 2, 3, 5], [1, 2, 0, 4]
        for basis in (
            canonical_subgraph_basis(4),
            reference_subgraph_basis(dec_a, idx_a),
        ):
            rot_a = subgraph_rotation(dec_a, idx_a, basis)
            rot_b = subgraph_rotation(dec_b, idx_b, basis)
            emb_a = diffusion_map(dec_a, 2) @ rot_a.T
            emb_b = diffusion_map(dec_b, 2) @ rot_b.T
            for i in range(6):
                for j in range(5):
                    direct = subgraph_diffusion_distance(
                        mat_a, mat_b, idx_a, idx_b, i, j, 2
                    )
                    ident = float(np.linalg.norm(emb_a[i] - emb_b[j]))
                    worst_partial = max(worst_partial, abs(direct - ident))
    _verdict(
        5,
        "subgraph distance recovery and rotation identity",
        worst_full <= 1e-10 and worst_partial <= 1e-6,
        f"full-overlap dev {worst_full:.3e}, partial-overlap dev {worst_partial:.3e}",
    )


def test_criterion_6_sampling_rate():
    start = time.perf_counter()
    report = torus_pair_study(
        n_grid=(100, 200, 400, 800), trials=20, reference_n=4000, t=1, seed=5
    )
    elapsed = time.perf_counter() - start
    pt, gl = report.pointwise.slope, report.global_.slope
    in_band = -0.65 <= pt <= -0.35 and -0.65 <= gl <= -0.35
    # doubling n should shrink the mean deviation by roughly 1/sqrt(2)
    half_rate = 1.0 / math.sqrt(2.0)
    ratios = np.concatenate(
        [
            report.pointwise.mean_deviation[1:] / report.pointwise.mean_deviation[:-1],
            report.global_.mean_deviation[1:] / report.global_.mean_deviation[:-1],
        ]
    )
    ratios_ok = bool(np.all((ratios >= 0.5 * half_rate) & (ratios <= 1.5 * half_rate)))
    _verdict(
        6,
        "square-root sampling rate of both distances",
        in_band and ratios_ok and elapsed < 300.0,
        f"pointwise slope {pt:+.3f}, global slope {gl:+.3f}, "
        f"doubling ratios {np.round(ratios, 2).tolist()}, runtime {elapsed:.1f}s",
    )


def test_criterion_7_torus_experiment():
    start = time.perf_counter()
    result = torus_experiment(n=1000, seed=7, target_lambda2=0.5, rank=10, t=2)
    elapsed = time.perf_counter() - start
    lambda2_ok = 0.3 <= result.meta_lambda2 <= 0.65
    inversions = monotonicity_inversions(result)
    monotone_ok = all(count <= 1 for count in inversions.values())
    accuracy = angle_classification_accuracy(result)
    accuracy_ok = accuracy >= 0.9
    _verdict(
        7,
        "pinched-torus family meta embedding",
        lambda2_ok and monotone_ok and accuracy_ok and elapsed < 600.0,
        f"meta lambda2 {result.meta_lambda2:.6f}, inversions {list(inversions.values())}, "
        f"angle accuracy {accuracy:.2f}, runtime {elapsed:.1f}s",
    )


def test_criterion_8_change_detection():
    result = change_detection_experiment(
        scene_seed=11, band_counts=(30, 50, 70), noise_sigma=0.01, shape=(32, 32),
        block_size=5,
    )
    planted = int(result.change_mask.sum())
    hits = result.hits_in_top(50)
    _verdict(
        8,
        "synthetic multi-sensor change detection",
        planted == 25 and hits >= 0.8 * planted,
        f"{hits}/{planted} planted pixels in the top 50 of 1024",
    )


def _hexagon_decomposition():
    angles = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    mat = diffusion_matrix(gaussian_kernel(PointCloud(pts), 1.2))
    return mat, spectral_decomposition(mat, 6)


def test_criterion_9_invariance_suite():
    rng = np.random.default_rng(99)
    _, dec_a = _hexagon_decomposition()
    _, dec_b = random_instance(6, seed=95_000)

    def distances(da, db):
        vals = [
            diffusion_distance(da, db, i, j, 2)
            for i in range(6)
            for j in range(6)
        ]
        vals.append(global_diffusion_distance(da, db, 2))
        vals.append(diffusion_distance(da, db, 1, 4, math.inf))
        vals.append(global_diffusion_distance(da, db, math.inf))
        return np.array(vals)

    baseline = distances(dec_a, dec_b)
    signs = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
    flipped = SpectralDecomposition(
        eigenvalues=dec_a.eigenvalues,
        eigenfunctions=dec_a.eigenfunctions * signs[None, :],
    )
    flip_dev = float(np.max(np.abs(distances(flipped, dec_b) - baseline)))

    lam = dec_a.eigenvalues
    psi = dec_a.eigenfunctions.copy()
    start = 0
    rotated_any = False
    while start < lam.size:
        stop = start + 1
        while stop < lam.size and abs(lam[stop] - lam[start]) < 1e-8:
            stop += 1
        if stop - start > 1:
            q, _ = np.linalg.qr(rng.normal(size=(stop - start, stop - start)))
            psi[:, start:stop] = psi[:, start:stop] @ q
            rotated_any = True
        start = stop
    rotated = SpectralDecomposition(eigenvalues=lam, eigenfunctions=psi)
    rot_dev = float(np.max(np.abs(distances(rotated, dec_b) - baseline)))

    instances = [dec_b] + [random_instance(6, seed=96_000 + k)[1] for k in range(2)]
    metric_ok = True
    samples = [(int(rng.integers(6)), int(rng.integers(3))) for _ in range(5)]

    def dist(p, q):
        (x, a), (y, b) = p, q
        return diffusion_distance(instances[a], instances[b], x, y, 2)

    for p in samples:
        metric_ok &= dist(p, p) == 0.0
        for q in samples:
            metric_ok &= abs(dist(p, q) - dist(q, p)) <= 1e-10
            for r in samples:
                metric_ok &= dist(p, r) <= dist(p, q) + dist(q, r) + 1e-10

    _verdict(
        9,
        "sign/rotation invariance and metric axioms",
        rotated_any and flip_dev <= 1e-8 and rot_dev <= 1e-8 and metric_ok,
        f"sign-flip dev {flip_dev:.3e}, eigenspace-rotation dev {rot_dev:.3e}, "
        f"metric axioms {'ok' if metric_ok else 'violated'}",
    )
