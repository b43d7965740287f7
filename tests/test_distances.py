import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamap import (
    ConnectivityError,
    CorrespondenceError,
    InputError,
    diffusion_distance,
    diffusion_distance_map,
    diffusion_distance_matrix,
    direct_diffusion_distance,
    direct_global_distance,
    global_diffusion_distance,
    global_distance_matrix,
    gram_matrix,
    pinched_torus_family,
    subgraph_diffusion_distance,
    truncate,
)
from dynamap.distances import NEGATIVE_SQ_TOL, _clamp_sq
from dynamap.exceptions import NumericalError
from dynamap.kernels import KernelMatrix, PointCloud, gaussian_kernel
from dynamap.operators import (
    DiffusionMatrix,
    SpectralDecomposition,
    diffusion_matrix,
    spectral_decomposition,
)

from conftest import gaussian_instance, random_instance, random_kernel


def test_gram_identity_and_orthogonality():
    _, dec = random_instance(5, seed=1)
    gram = gram_matrix(dec, dec)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)
    _, other = random_instance(5, seed=2)
    cross = gram_matrix(dec, other)
    prod = cross.T @ cross
    assert np.max(np.abs(prod - np.eye(5))) <= 1e-8
    assert np.max(np.abs(cross)) <= 1.0 + 1e-8


def test_gram_sign_flip_is_absorbed_by_convention():
    from dynamap.operators import apply_sign_convention

    _, dec = random_instance(5, seed=3)
    _, other = random_instance(5, seed=4)
    flipped = apply_sign_convention(other.eigenfunctions * -1.0)
    np.testing.assert_array_equal(flipped, other.eigenfunctions)


def test_gram_size_mismatch():
    _, dec5 = random_instance(5, seed=5)
    _, dec6 = random_instance(6, seed=5)
    with pytest.raises(CorrespondenceError):
        gram_matrix(dec5, dec6)


def test_self_distance_is_zero():
    _, dec = random_instance(6, seed=7)
    for t in (1, 2, 5):
        assert diffusion_distance(dec, dec, 3, 3, t) == 0.0


def test_reduces_to_single_graph_formula():
    _, dec = random_instance(6, seed=8)
    for t in (1, 2):
        for x, y in ((0, 1), (2, 5)):
            classic = math.sqrt(
                float(
                    np.sum(
                        dec.eigenvalues ** (2 * t)
                        * (dec.eigenfunctions[x] - dec.eigenfunctions[y]) ** 2
                    )
                )
            )
            assert diffusion_distance(dec, dec, x, y, t) == pytest.approx(
                classic, abs=1e-10
            )


@pytest.mark.parametrize("t", [1, 2, 5])
def test_pointwise_oracle_equivalence(t):
    for seed in range(8):
        mat_a, dec_a = random_instance(6, seed=100 + seed)
        mat_b, dec_b = random_instance(6, seed=200 + seed)
        for i, j in ((0, 0), (1, 4), (5, 2)):
            spec = diffusion_distance(dec_a, dec_b, i, j, t)
            direct = direct_diffusion_distance(mat_a, mat_b, i, j, t)
            assert abs(spec - direct) <= 1e-8


def test_direct_distance_trivia():
    mat, _ = random_instance(5, seed=9)
    assert direct_diffusion_distance(mat, mat, 2, 2, 3) == 0.0
    ones = diffusion_matrix(KernelMatrix(np.ones((4, 4))))
    other = diffusion_matrix(KernelMatrix(np.ones((4, 4))))
    for i in range(4):
        for j in range(4):
            assert direct_diffusion_distance(ones, other, i, j, 2) == pytest.approx(0.0, abs=1e-15)


def test_direct_distance_elementwise_reference():
    # independent elementwise implementation of the same quadrature
    mat_a, _ = random_instance(4, seed=10)
    mat_b, _ = random_instance(4, seed=11)
    t, i, j = 2, 1, 3
    pow_a = np.linalg.matrix_power(mat_a.values, t)
    pow_b = np.linalg.matrix_power(mat_b.values, t)
    total = 0.0
    for k in range(4):
        total += (4 * pow_a[i, k] - 4 * pow_b[j, k]) ** 2 / 4
    assert direct_diffusion_distance(mat_a, mat_b, i, j, t) == pytest.approx(
        math.sqrt(total), abs=1e-12
    )


def test_maps_and_matrix_agree_with_scalar():
    _, dec_a = random_instance(6, seed=12)
    _, dec_b = random_instance(6, seed=13)
    for t in (2, math.inf):
        full = diffusion_distance_matrix(dec_a, dec_b, t)
        corr = diffusion_distance_map(dec_a, dec_b, t)
        for i in range(6):
            assert corr[i] == pytest.approx(full[i, i], abs=1e-12)
            for j in range(6):
                assert full[i, j] == pytest.approx(
                    diffusion_distance(dec_a, dec_b, i, j, t), abs=1e-12
                )
    # swapping the parameters transposes the all-pairs limit
    np.testing.assert_allclose(
        diffusion_distance_matrix(dec_b, dec_a, math.inf), full.T, rtol=0.0, atol=1e-12
    )


def test_identical_inputs_give_zero_map():
    # every corresponding-point entry cancels, so at n = 300 the recomputation
    # runs over more than one block
    for _, dec in (random_instance(6, seed=14), gaussian_instance(300, seed=14)):
        zeros = np.zeros(dec.n)
        np.testing.assert_array_equal(diffusion_distance_map(dec, dec, 2), zeros)
        np.testing.assert_array_equal(np.diag(diffusion_distance_matrix(dec, dec, 2)), zeros)


def test_recomputed_entries_match_oracle_on_torus_pair():
    # away from the pinch the two tori coincide, so corresponding points there
    # have nearly equal diffusion rows and take the difference-first
    # recomputation; the plain three-term form misses 34 of them by over 1e-8
    clouds, _ = pinched_torus_family(3, n=300)
    mats = [diffusion_matrix(gaussian_kernel(clouds[k], 2.0)) for k in (0, 1)]
    dec_a, dec_b = (spectral_decomposition(mat, 300) for mat in mats)
    gram = gram_matrix(dec_a, dec_b)
    wa = dec_a.eigenfunctions * dec_a.eigenvalues
    wb = dec_b.eigenfunctions * dec_b.eigenvalues
    scale = np.sum(wa * wa, axis=1) + np.sum(wb * wb, axis=1)
    three_term = scale - 2.0 * np.sum((wa @ gram) * wb, axis=1)
    recomputed = np.flatnonzero(three_term < 1e-9 * scale)
    assert recomputed.size > 100
    dmap = diffusion_distance_map(dec_a, dec_b, 1)
    full = diffusion_distance_matrix(dec_a, dec_b, 1)
    for i in (*recomputed, *range(0, 300, 30)):
        direct = direct_diffusion_distance(*mats, i, i, 1)
        assert abs(dmap[i] - direct) <= 1e-8
        assert abs(full[i, i] - direct) <= 1e-8
    for i, j in ((0, 7), (42, 299), (150, 3)):
        assert abs(full[i, j] - direct_diffusion_distance(*mats, i, j, 1)) <= 1e-8


@pytest.mark.parametrize("bad", [-1, 6])
def test_point_index_out_of_range(bad):
    mat, dec = random_instance(6, seed=36)
    routes = (
        lambda i, j: diffusion_distance(dec, dec, i, j, 2),
        lambda i, j: diffusion_distance(dec, dec, i, j, math.inf),
        lambda i, j: direct_diffusion_distance(mat, mat, i, j, 2),
    )
    for route in routes:
        for i, j in ((bad, 0), (0, bad)):
            with pytest.raises(InputError):
                route(i, j)


def test_asymptotic_pointwise_against_large_t():
    for seed in range(5):
        _, dec_a = random_instance(6, seed=300 + seed)
        _, dec_b = random_instance(6, seed=400 + seed)
        for i, j in ((0, 0), (2, 4)):
            limit = diffusion_distance(dec_a, dec_b, i, j, 400)
            assert abs(limit - diffusion_distance(dec_a, dec_b, i, j, math.inf)) <= 1e-6


def test_asymptotic_pointwise_trivia():
    _, dec = random_instance(6, seed=15)
    assert diffusion_distance(dec, dec, 2, 2, math.inf) == 0.0
    # same parameter, different points: only the pointwise gap survives
    for i, j in ((0, 1), (3, 5)):
        expected = abs(dec.eigenfunctions[i, 0] - dec.eigenfunctions[j, 0])
        assert diffusion_distance(dec, dec, i, j, math.inf) == pytest.approx(
            expected, abs=1e-12
        )
    mapped = diffusion_distance_map(dec, dec, math.inf)
    np.testing.assert_array_equal(mapped, np.zeros(6))


def test_asymptotic_requires_connectivity():
    # two decoupled blocks: eigenvalue 1 has multiplicity two
    block = np.full((2, 2), 0.5)
    values = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    mat = DiffusionMatrix(values=values)
    dec = spectral_decomposition(mat, 4)
    with pytest.raises(ConnectivityError):
        diffusion_distance(dec, dec, 0, 1, math.inf)
    with pytest.raises(ConnectivityError):
        global_diffusion_distance(dec, dec, math.inf)


def _two_blocks(cross, seed):
    """Two 6-point blocks joined by affinity `cross`, decomposed at full rank."""
    rng = np.random.default_rng(seed)
    values = np.full((12, 12), cross)
    for block in (slice(0, 6), slice(6, 12)):
        values[block, block] = random_kernel(6, rng).values
    mat = diffusion_matrix(KernelMatrix(values))
    return mat, spectral_decomposition(mat, 12)


def test_nearly_disconnected_graphs_at_the_connectivity_gap():
    # CONNECTIVITY_GAP is 1e-9; the error used to print lambda_2 itself, which
    # at .12g read "1" for a gap of 1e-13
    (mat_a, dec_a), (mat_b, dec_b) = _two_blocks(1e-13, 70), _two_blocks(1e-13, 71)
    for call in (
        lambda: diffusion_distance(dec_a, dec_b, 0, 7, math.inf),
        lambda: global_diffusion_distance(dec_a, dec_b, math.inf),
    ):
        with pytest.raises(ConnectivityError, match=r"spectral gap 1 - lambda_2 = \S+e-13 "):
            call()
    # finite times need no gap
    direct = direct_diffusion_distance(mat_a, mat_b, 0, 7, 3)
    assert abs(diffusion_distance(dec_a, dec_b, 0, 7, 3) - direct) <= 1e-8
    direct = direct_global_distance(mat_a, mat_b, 3)
    assert abs(global_diffusion_distance(dec_a, dec_b, 3) - direct) <= 1e-8
    (_, dec_a), (_, dec_b) = _two_blocks(1e-6, 70), _two_blocks(1e-6, 71)
    assert np.isfinite(diffusion_distance(dec_a, dec_b, 0, 7, math.inf))
    assert np.isfinite(global_diffusion_distance(dec_a, dec_b, math.inf))


def test_two_point_graphs_through_every_distance():
    kernels = ([[1.0, 0.3], [0.3, 0.5]], [[0.8, 0.6], [0.6, 1.0]])
    mats = [diffusion_matrix(KernelMatrix(np.array(values))) for values in kernels]
    decs = [spectral_decomposition(mat, 2) for mat in mats]
    for t in (1, 2):
        direct = np.array(
            [[direct_diffusion_distance(*mats, i, j, t) for j in range(2)] for i in range(2)]
        )
        for i, j in itertools.product(range(2), repeat=2):
            assert abs(diffusion_distance(*decs, i, j, t) - direct[i, j]) <= 1e-12
        np.testing.assert_allclose(diffusion_distance_map(*decs, t), np.diag(direct), atol=1e-12)
        np.testing.assert_allclose(diffusion_distance_matrix(*decs, t), direct, atol=1e-12)
        glob = direct_global_distance(*mats, t)
        assert abs(global_diffusion_distance(*decs, t) - glob) <= 1e-12
        np.testing.assert_allclose(
            global_distance_matrix(decs, t), [[0.0, glob], [glob, 0.0]], atol=1e-12
        )
    # rank 1 carries no lambda_2 for the large-t connectivity check
    rank_one = [truncate(dec, 1) for dec in decs]
    for call in (
        lambda: diffusion_distance(*rank_one, 0, 1, math.inf),
        lambda: diffusion_distance_map(*rank_one, math.inf),
        lambda: diffusion_distance_matrix(*rank_one, math.inf),
        lambda: global_diffusion_distance(*rank_one, math.inf),
        lambda: global_distance_matrix(rank_one, math.inf),
    ):
        with pytest.raises(InputError, match="at least two eigenpairs"):
            call()


def test_global_self_and_identical_spectra():
    _, dec = random_instance(5, seed=16)
    assert global_diffusion_distance(dec, dec, 2) == pytest.approx(0.0, abs=1e-12)


def test_global_self_distance_at_full_rank_n60():
    # complete Gram rows miss 1 by a few 1e-15 either way; weighted by la^2t
    # those defects alone would read about 5e-8 at seeds 0, 3, 4, 5 and 7, so
    # the distance is 0 only because defects below 1e-12 count as complete
    for seed in range(8):
        _, dec = gaussian_instance(60, seed)
        assert global_diffusion_distance(dec, dec, 2) <= 1e-12


@pytest.mark.parametrize("t", [1, 2, 5])
def test_global_oracle_equivalence(t):
    for seed in range(8):
        mat_a, dec_a = random_instance(5, seed=500 + seed)
        mat_b, dec_b = random_instance(5, seed=600 + seed)
        spec = global_diffusion_distance(dec_a, dec_b, t)
        direct = direct_global_distance(mat_a, mat_b, t)
        assert abs(spec - direct) <= 1e-8


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_direct_global_row_blocks_match_the_whole_difference(n, t):
    # the squared norm is summed over 64-row blocks; the sizes straddle their edges
    rng = np.random.default_rng(n + 10 * t)
    mat_a, mat_b = (diffusion_matrix(random_kernel(n, rng)) for _ in range(2))
    pows = [np.linalg.matrix_power(mat.values, t) for mat in (mat_a, mat_b)]
    whole = np.linalg.norm(pows[0] - pows[1], "fro")
    assert direct_global_distance(mat_a, mat_b, t) == pytest.approx(whole, rel=1e-12, abs=0.0)


def test_direct_global_eigenvalue_arithmetic():
    ident = DiffusionMatrix(values=np.eye(3))
    other = DiffusionMatrix(values=np.diag([1.0, 0.5, 0.25]))
    expected = math.sqrt(0.25 + 0.5625)
    assert direct_global_distance(ident, other, 1) == pytest.approx(expected, abs=1e-15)


def test_asymptotic_global_orthogonal_tops_and_large_t():
    lam = np.array([1.0, 0.5, 0.3, 0.1])
    psi_a = 2.0 * np.eye(4)
    psi_b = psi_a[:, [1, 0, 2, 3]]
    dec_a = SpectralDecomposition(eigenvalues=lam, eigenfunctions=psi_a)
    dec_b = SpectralDecomposition(eigenvalues=lam, eigenfunctions=psi_b)
    assert global_diffusion_distance(dec_a, dec_b, math.inf) == pytest.approx(math.sqrt(2.0))
    for seed in range(5):
        _, dec_x = random_instance(6, seed=700 + seed)
        _, dec_y = random_instance(6, seed=800 + seed)
        limit = global_diffusion_distance(dec_x, dec_y, 400)
        assert abs(limit - global_diffusion_distance(dec_x, dec_y, math.inf)) <= 1e-6


def test_global_monotone_decay_shared_eigenvectors():
    # decay is not universal even with shared eigenvectors (|0.8^t - 0.7^t|
    # grows through t=4); against a projector every summand shrinks
    rng = np.random.default_rng(21)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    lam_a = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    lam_b = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    sym_a = (basis * lam_a) @ basis.T
    sym_a = (sym_a + sym_a.T) / 2.0
    sym_b = (basis * lam_b) @ basis.T
    sym_b = (sym_b + sym_b.T) / 2.0
    mat_a = DiffusionMatrix(values=sym_a)
    mat_b = DiffusionMatrix(values=sym_b)
    dists = [direct_global_distance(mat_a, mat_b, t) for t in (1, 2, 3, 4, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    expected = [math.sqrt(float(np.sum(lam_a[1:] ** (2 * t)))) for t in (1, 2, 3, 4, 6)]
    np.testing.assert_allclose(dists, expected, atol=1e-12)


def test_global_distance_matrix_layout():
    decs = [random_instance(5, seed=900 + k)[1] for k in range(3)]
    for t in (2, math.inf):
        mat = global_distance_matrix(decs, t)
        assert mat.shape == (3, 3)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(3))
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(mat[~np.eye(3, dtype=bool)] > 0.0)
    # t = inf pairs the members through the large-t limit
    assert mat[0, 2] == global_diffusion_distance(decs[0], decs[2], math.inf)


def test_subgraph_full_overlap_recovers_standard():
    mat_a, _ = random_instance(5, seed=22)
    mat_b, _ = random_instance(5, seed=23)
    idx = list(range(5))
    for t in (1, 3):
        for i, j in ((0, 0), (2, 4)):
            sub = subgraph_diffusion_distance(mat_a, mat_b, idx, idx, i, j, t)
            std = direct_diffusion_distance(mat_a, mat_b, i, j, t)
            assert abs(sub - std) <= 1e-10
    assert subgraph_diffusion_distance(mat_a, mat_a, idx, idx, 1, 1, 2) == 0.0


def test_subgraph_partial_overlap_elementwise_reference():
    mat_a, _ = random_instance(6, seed=24)
    mat_b, _ = random_instance(5, seed=25)
    idx_a, idx_b = [0, 2, 3, 5], [1, 2, 0, 4]
    t, i, j = 2, 1, 3
    pow_a = np.linalg.matrix_power(mat_a.values, t)
    pow_b = np.linalg.matrix_power(mat_b.values, t)
    total = 0.0
    for sa, sb in zip(idx_a, idx_b):
        total += (6 * pow_a[i, sa] - 5 * pow_b[j, sb]) ** 2
    expected = math.sqrt(total / 4)
    got = subgraph_diffusion_distance(mat_a, mat_b, idx_a, idx_b, i, j, t)
    assert got == pytest.approx(expected, abs=1e-12)


def test_clamp_sq_forgives_only_roundoff_negatives():
    assert _clamp_sq(0.25) == 0.25
    assert _clamp_sq(-0.5 * NEGATIVE_SQ_TOL) == 0.0
    assert _clamp_sq(-NEGATIVE_SQ_TOL) == 0.0
    with pytest.raises(NumericalError, match="below roundoff tolerance"):
        _clamp_sq(-2.0 * NEGATIVE_SQ_TOL)


def test_subgraph_validation():
    mat_a, _ = random_instance(5, seed=26)
    mat_b, _ = random_instance(5, seed=27)
    with pytest.raises(InputError):
        subgraph_diffusion_distance(mat_a, mat_b, [], [], 0, 0, 1)
    with pytest.raises(InputError):
        subgraph_diffusion_distance(mat_a, mat_b, [0, 1], [0], 0, 0, 1)


@pytest.mark.parametrize("bad", [-1, 5])
def test_subgraph_refuses_out_of_range_indices(bad):
    # -1 would wrap to the last point and 5 would overrun the 5-point graphs
    mat_a, _ = random_instance(5, seed=26)
    mat_b, _ = random_instance(5, seed=27)
    with pytest.raises(InputError, match=rf"common_indices_a={bad} out of range for n=5"):
        subgraph_diffusion_distance(mat_a, mat_b, [0, 1, bad], [0, 1, 2], 0, 0, 1)
    with pytest.raises(InputError, match=rf"common_indices_b={bad} out of range for n=5"):
        subgraph_diffusion_distance(mat_a, mat_b, [0, 1, 2], [0, bad, 2], 0, 0, 1)


# a float index was truncated (1.9 -> 1) or raised a bare IndexError, a bool
# was taken as 0 or 1, and a list as one point raised a bare numpy error; a
# boolean mask stands in for a list of bools, and integral floats are refused
NON_INTEGER_INDICES = [
    (1.5, [0, 1.5, 2]),
    (1.9, [0, 1.9, 2]),
    (True, [True, False, True]),
    ([0, 1], [0.0, 1.0, 2.0]),
    ([[0], [1, 2]], [[0], [1, 2]]),  # ragged: numpy refuses to make it an array
]


@pytest.mark.parametrize("bad, shared", NON_INTEGER_INDICES)
def test_pointwise_distances_refuse_non_integer_indices(bad, shared):
    mat, dec = random_instance(5, seed=26)
    calls = {
        "i": [
            lambda: diffusion_distance(dec, dec, bad, 0, 1),
            lambda: diffusion_distance(dec, dec, bad, 0, math.inf),
            lambda: direct_diffusion_distance(mat, mat, bad, 0, 1),
            lambda: subgraph_diffusion_distance(mat, mat, [0, 1, 2], [0, 1, 2], bad, 0, 1),
        ],
        "j": [
            lambda: diffusion_distance(dec, dec, 0, bad, 1),
            lambda: diffusion_distance(dec, dec, 0, bad, math.inf),
            lambda: direct_diffusion_distance(mat, mat, 0, bad, 1),
            lambda: subgraph_diffusion_distance(mat, mat, [0, 1, 2], [0, 1, 2], 0, bad, 1),
        ],
        "common_indices_a": [
            lambda: subgraph_diffusion_distance(mat, mat, shared, [0, 1, 2], 0, 0, 1),
        ],
        "common_indices_b": [
            lambda: subgraph_diffusion_distance(mat, mat, [0, 1, 2], shared, 0, 0, 1),
        ],
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(InputError, match=rf"point index {name}=.* is not an integer"):
                call()


def test_subgraph_distance_empty_set_is_named_before_its_dtype():
    # [] has a float dtype; the empty set is still what the error names
    mat, _ = random_instance(5, seed=26)
    with pytest.raises(InputError, match="S must be nonempty"):
        subgraph_diffusion_distance(mat, mat, [], [], 0, 0, 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(3, 4), st.integers(2, 8), st.data())
def test_global_distance_matrix_metric_axioms(seed, members, n, data):
    # at any rank the Bessel-defect form is ||A_k - B_k||_F of the truncated
    # operators, and the t = inf form is sqrt(2) sin of the angle between the
    # top eigenfunctions, so both are metrics; t = inf needs lambda2 (rank 2)
    t = data.draw(st.sampled_from([1, 2, 3, math.inf]))
    rank = data.draw(st.integers(2 if t == math.inf else 1, n))
    rng = np.random.default_rng(seed)
    decs = [
        spectral_decomposition(diffusion_matrix(random_kernel(n, rng)), rank)
        for _ in range(members)
    ]
    dist = global_distance_matrix(decs, t)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    for a, b, c in itertools.permutations(range(members), 3):
        assert dist[a, c] <= dist[a, b] + dist[b, c] + 1e-10


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.data())
def test_metric_properties(seed, data):
    # at t = inf the distance is ||pa(x) psi_a - pb(y) psi_b|| over the top
    # eigenfunctions, a pseudo-metric on (point, parameter) pairs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    t = data.draw(st.sampled_from([1, 2, 3, math.inf]))
    instances = [random_instance(n, seed=seed + k)[1] for k in range(3)]
    points = [(int(rng.integers(n)), int(rng.integers(3))) for _ in range(4)]

    def dist(p, q):
        (x, a), (y, b) = p, q
        return diffusion_distance(instances[a], instances[b], x, y, t)

    for p in points:
        assert dist(p, p) == 0.0
        for q in points:
            assert dist(p, q) == pytest.approx(dist(q, p), abs=1e-10)
            for r in points:
                assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-10


def _gaussian_pair(points):
    """Full-rank decompositions of a two-member Gaussian family on one sample
    order: the points as given and a fixed deformation of them."""
    decs = []
    for cloud in (points, points + 0.3 * np.sin(points[:, ::-1])):
        mat = diffusion_matrix(gaussian_kernel(PointCloud(cloud), 1.5))
        decs.append(spectral_decomposition(mat, mat.n))
    return decs


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_permutation_equivariance(seed):
    # relabelling the shared samples by P permutes every pointwise distance by
    # P and leaves the whole-graph distance alone
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    t = int(rng.integers(1, 4))
    points = rng.normal(size=(n, 3))
    perm = rng.permutation(n)
    dec_a, dec_b = _gaussian_pair(points)
    pdec_a, pdec_b = _gaussian_pair(points[perm])
    for time in (t, math.inf):
        np.testing.assert_allclose(
            diffusion_distance_matrix(pdec_a, pdec_b, time),
            diffusion_distance_matrix(dec_a, dec_b, time)[np.ix_(perm, perm)],
            rtol=0.0, atol=1e-10,
        )
        np.testing.assert_allclose(
            diffusion_distance_map(pdec_a, pdec_b, time),
            diffusion_distance_map(dec_a, dec_b, time)[perm],
            rtol=0.0, atol=1e-10,
        )
    assert global_diffusion_distance(pdec_a, pdec_b, t) == pytest.approx(
        global_diffusion_distance(dec_a, dec_b, t), abs=1e-10
    )


def _hexagon_instance():
    """Kernel on a regular hexagon: circulant, so eigenvalues come in exact pairs."""
    angles = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    mat = diffusion_matrix(gaussian_kernel(PointCloud(pts), 1.2))
    return mat, spectral_decomposition(mat, 6)


def _rotate_degenerate_blocks(dec, rng):
    lam = dec.eigenvalues
    psi = dec.eigenfunctions.copy()
    start = 0
    while start < lam.size:
        stop = start + 1
        while stop < lam.size and abs(lam[stop] - lam[start]) < 1e-8:
            stop += 1
        if stop - start > 1:
            block = rng.normal(size=(stop - start, stop - start))
            q, _ = np.linalg.qr(block)
            psi[:, start:stop] = psi[:, start:stop] @ q
        start = stop
    return SpectralDecomposition(eigenvalues=lam, eigenfunctions=psi)


def test_invariance_under_signs_and_degenerate_rotations():
    rng = np.random.default_rng(31)
    mat_a, dec_a = _hexagon_instance()
    mat_b, dec_b = random_instance(6, seed=32)

    def all_distances(da, db):
        out = [diffusion_distance(da, db, i, j, 2) for i in range(6) for j in range(6)]
        out.append(global_diffusion_distance(da, db, 2))
        out.append(diffusion_distance(da, db, 1, 4, math.inf))
        out.append(global_diffusion_distance(da, db, math.inf))
        return np.array(out)

    baseline = all_distances(dec_a, dec_b)
    flipped = SpectralDecomposition(
        eigenvalues=dec_a.eigenvalues,
        eigenfunctions=dec_a.eigenfunctions * np.array([1, -1, -1, 1, -1, 1.0])[None, :],
    )
    assert np.max(np.abs(all_distances(flipped, dec_b) - baseline)) <= 1e-8
    rotated = _rotate_degenerate_blocks(dec_a, rng)
    assert np.max(np.abs(all_distances(rotated, dec_b) - baseline)) <= 1e-8
    # the hexagon really does have degenerate pairs, so the rotation is nontrivial
    assert not np.allclose(rotated.eigenfunctions, dec_a.eigenfunctions)


def test_truncation_error_within_spectral_tail_bound():
    _, dec_a = gaussian_instance(10, seed=33)
    _, dec_b = gaussian_instance(10, seed=34)
    t = 2
    for rank in (4, 7):
        cut_a, cut_b = truncate(dec_a, rank), truncate(dec_b, rank)
        for i, j in ((0, 0), (3, 7)):
            d_full = diffusion_distance(dec_a, dec_b, i, j, t) ** 2
            d_cut = diffusion_distance(cut_a, cut_b, i, j, t) ** 2
            tail_a = float(np.sum(dec_a.eigenvalues[rank:] ** (2 * t)))
            tail_b = float(np.sum(dec_b.eigenvalues[rank:] ** (2 * t)))
            sup_sq = max(
                np.max(np.abs(dec_a.eigenfunctions)) ** 2,
                np.max(np.abs(dec_b.eigenfunctions)) ** 2,
            )
            norm_a = math.sqrt(float(np.sum(dec_a.eigenvalues ** (2 * t) * dec_a.eigenfunctions[i] ** 2)))
            norm_b = math.sqrt(float(np.sum(dec_b.eigenvalues ** (2 * t) * dec_b.eigenfunctions[j] ** 2)))
            tail_norm = (math.sqrt(tail_a) + math.sqrt(tail_b)) * math.sqrt(sup_sq)
            bound = (2.0 * (norm_a + norm_b) + tail_norm) * tail_norm
            assert abs(d_full - d_cut) <= bound + 1e-12


def test_distance_rejects_bad_time():
    _, dec = random_instance(4, seed=35)
    with pytest.raises(InputError):
        diffusion_distance(dec, dec, 0, 1, 0)
    with pytest.raises(InputError):
        diffusion_distance(dec, dec, 0, 1, 1.5)
    # math.inf is the large-t limit; no other non-integer time is taken
    for bad in (True, 2.0, -math.inf, math.nan):
        with pytest.raises(InputError):
            diffusion_distance(dec, dec, 0, 1, bad)
        with pytest.raises(InputError):
            diffusion_distance_map(dec, dec, bad)
        with pytest.raises(InputError):
            diffusion_distance_matrix(dec, dec, bad)
        with pytest.raises(InputError):
            global_diffusion_distance(dec, dec, bad)
        with pytest.raises(InputError):
            global_distance_matrix([dec, dec], bad)
