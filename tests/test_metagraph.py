import numpy as np
import pytest

from dynamap import (
    EXPONENTIAL,
    INNER_PRODUCT,
    MEDIAN,
    CorrespondenceError,
    DegeneracyError,
    InputError,
    NumericalError,
    diffusion_distance,
    direct_diffusion_distance,
    global_distance_matrix,
    historical_embedding,
    historical_kernel,
    meta_embedding,
    meta_kernel,
)
from dynamap.kernels import KernelMatrix
from dynamap.metagraph import HistoricalGraph, MetaGraph, meta_decomposition
from dynamap.operators import diffusion_matrix, spectral_decomposition

from conftest import peak_bytes, random_instance


def test_meta_kernel_identical_graphs_all_ones():
    dists = np.zeros((4, 4))
    meta = meta_kernel(dists, epsilon=1.0)
    np.testing.assert_array_equal(meta.kernel, np.ones((4, 4)))


def test_meta_kernel_huge_bandwidth_all_ones():
    decs = [random_instance(5, seed=80 + k)[1] for k in range(3)]
    dists = global_distance_matrix(decs, 2)
    meta = meta_kernel(dists, epsilon=1e9)
    assert np.max(np.abs(meta.kernel - 1.0)) < 1e-9


def test_meta_kernel_median_bandwidth():
    dists = np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    )
    meta = meta_kernel(dists, epsilon=MEDIAN)
    assert meta.epsilon == 2.0
    np.testing.assert_allclose(
        meta.kernel, np.exp(-(dists**2) / 4.0), atol=1e-15
    )
    assert np.all(np.diag(meta.kernel) == 1.0)


def test_meta_kernel_degenerate_median():
    with pytest.raises(DegeneracyError):
        meta_kernel(np.zeros((3, 3)), epsilon=MEDIAN)


def test_meta_kernel_absorbs_roundoff_asymmetry():
    dists = np.array(
        [[0.0, 1.0, 2.0], [1.0 + 5e-11, 0.0, 3.0], [2.0, 3.0 - 5e-11, 0.0]]
    )
    meta = meta_kernel(dists, epsilon=1.5)
    assert np.array_equal(meta.kernel, meta.kernel.T)
    meta_decomposition(meta, 2)  # downstream kernel validation accepts it


def test_meta_kernel_validation():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InputError):
        meta_kernel(bad, epsilon=1.0)
    with pytest.raises(InputError):
        meta_kernel(np.array([[1.0, 1.0], [1.0, 1.0]]), epsilon=1.0)
    with pytest.raises(InputError):
        meta_kernel(np.zeros((3, 3)), epsilon=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("epsilon", [1.0, MEDIAN])
def test_meta_kernel_refuses_non_finite_distances(bad, epsilon):
    # NaN passed the symmetry check into a NaN kernel, and inf made the
    # median bandwidth inf
    dists = np.array([[0.0, 1.0, bad], [1.0, 0.0, 2.0], [bad, 2.0, 0.0]])
    with pytest.raises(InputError, match="finite"):
        meta_kernel(dists, epsilon=epsilon)


@pytest.mark.parametrize("members", [0, 1])
@pytest.mark.parametrize("epsilon", [1.0, MEDIAN])
def test_meta_kernel_needs_two_members(members, epsilon):
    # 0 x 0 raised a bare ValueError, and 1 x 1 said all family distances were zero
    with pytest.raises(InputError, match="at least two members"):
        meta_kernel(np.zeros((members, members)), epsilon=epsilon)


def test_meta_kernel_refuses_nan_bandwidth():
    with pytest.raises(InputError, match="epsilon must be positive"):
        meta_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), epsilon=np.nan)


def test_meta_embedding_identical_graphs_collapse():
    decs = [random_instance(5, seed=90)[1]] * 2 + [random_instance(5, seed=91)[1]]
    dists = global_distance_matrix(decs, 2)
    meta = meta_kernel(dists, epsilon=MEDIAN)
    coords = meta_embedding(meta, s=1.92, dims=3)
    np.testing.assert_allclose(coords[0], coords[1], atol=1e-10)


def test_meta_embedding_matches_single_graph_distances():
    decs = [random_instance(6, seed=95 + k)[1] for k in range(3)]
    dists = global_distance_matrix(decs, 2)
    meta = meta_kernel(dists, epsilon=MEDIAN)
    s = 2
    coords = meta_embedding(meta, s=s, dims=3)
    dec_meta = meta_decomposition(meta, 3)
    for a in range(3):
        for b in range(3):
            expected = diffusion_distance(dec_meta, dec_meta, a, b, s)
            got = float(np.linalg.norm(coords[a] - coords[b]))
            assert got == pytest.approx(expected, abs=1e-10)


def test_meta_embedding_trivial_flag_and_validation():
    decs = [random_instance(5, seed=99 + k)[1] for k in range(4)]
    dists = global_distance_matrix(decs, 2)
    meta = meta_kernel(dists, epsilon=MEDIAN)
    keep = meta_embedding(meta, s=1.92, dims=2)
    assert keep.shape == (4, 2)
    dec = meta_decomposition(meta, 3)
    np.testing.assert_allclose(keep[:, 1], dec.eigenvalues[1] ** 1.92 * dec.eigenfunctions[:, 1], atol=1e-10)
    with pytest.raises(InputError):
        meta_embedding(meta, s=1.92, dims=5)
    with pytest.raises(InputError):
        meta_embedding(meta, s=-1.0, dims=2)


def test_meta_embedding_real_power_guard():
    # an indefinite kernel: real powers of negative eigenvalues are refused
    kern = np.array(
        [[1.0, 0.99, 0.01], [0.99, 1.0, 0.99], [0.01, 0.99, 1.0]]
    )
    meta = MetaGraph(kernel=kern, epsilon=1.0)
    eigs = np.linalg.eigvalsh(diffusion_matrix(KernelMatrix(kern)).values)
    assert eigs.min() < -1e-6  # the guard is actually exercised
    with pytest.raises(NumericalError):
        meta_embedding(meta, s=1.5, dims=3)
    meta_embedding(meta, s=2, dims=3)  # integer powers stay legal


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_embeddings_refuse_non_finite_time(s):
    # both used to return all-NaN coordinates
    decs = [random_instance(5, seed=99 + k)[1] for k in range(4)]
    meta = meta_kernel(global_distance_matrix(decs, 2), epsilon=MEDIAN)
    with pytest.raises(InputError):
        meta_embedding(meta, s=s, dims=2)
    mats, _ = _family(4, [60, 61])
    hist = historical_kernel(mats, 2, variant=INNER_PRODUCT)
    with pytest.raises(InputError):
        historical_embedding(hist, s=s, dims=2)


def _family(n, seeds):
    mats, decs = [], []
    for seed in seeds:
        mat, dec = random_instance(n, seed=seed)
        mats.append(mat)
        decs.append(dec)
    return mats, decs


def test_historical_exponential_single_parameter():
    mats, decs = _family(5, [110])
    hist = historical_kernel(mats, t=2, epsilon=0.7, variant=EXPONENTIAL)
    assert hist.kernel.shape == (5, 5)
    for x in range(5):
        for y in range(5):
            expected = np.exp(-direct_diffusion_distance(mats[0], mats[0], x, y, 2) / 0.7)
            assert hist.kernel[x, y] == pytest.approx(expected, abs=1e-10)
    assert np.all(np.diag(hist.kernel) == 1.0)


def test_historical_exponential_two_parameters():
    mats, decs = _family(4, [111, 112])
    hist = historical_kernel(mats, t=1, epsilon=1.3, variant=EXPONENTIAL)
    assert hist.kernel.shape == (8, 8)
    np.testing.assert_array_equal(hist.kernel, hist.kernel.T)
    assert np.all(np.diag(hist.kernel) == 1.0)
    # cross block entry checks the distance (not squared) in the exponent
    d = direct_diffusion_distance(mats[0], mats[1], 1, 3, 1)
    assert hist.kernel[1, 4 + 3] == pytest.approx(np.exp(-d / 1.3), abs=1e-10)
    # valid kernel input for another diffusion round
    mat2 = diffusion_matrix(KernelMatrix(hist.kernel))
    dec2 = spectral_decomposition(mat2, 8)
    assert dec2.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_historical_inner_product_oracle_and_polarization():
    mats, _ = _family(5, [113, 114])
    t = 2
    hist = historical_kernel(mats, t=t, variant=INNER_PRODUCT)
    pows = [np.linalg.matrix_power(m.values, t) for m in mats]
    n = 5
    for a in range(2):
        for b in range(2):
            for x in range(n):
                for y in range(n):
                    brute = sum(
                        (n * pows[a][x, u]) * (n * pows[b][y, u]) / n for u in range(n)
                    )
                    assert hist.kernel[a * n + x, b * n + y] == pytest.approx(
                        brute, abs=1e-9
                    )
    # polarization identity against the pointwise distance
    for x in range(n):
        for y in range(n):
            lhs = direct_diffusion_distance(mats[0], mats[1], x, y, t) ** 2
            rhs = (
                hist.kernel[x, x]
                + hist.kernel[n + y, n + y]
                - 2.0 * hist.kernel[x, n + y]
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_historical_kernel_validation():
    mats, _ = _family(4, [115, 116])
    with pytest.raises(InputError):
        historical_kernel(mats, t=1, variant=EXPONENTIAL)  # missing epsilon
    with pytest.raises(InputError):
        historical_kernel(mats, t=1, epsilon=1.0, variant="nope")
    with pytest.raises(InputError):
        historical_kernel(mats, t=2.5, epsilon=1.0)  # not rounded down to t = 2
    small, _ = random_instance(3, seed=117)
    with pytest.raises(CorrespondenceError):
        historical_kernel([mats[0], small], t=1, epsilon=1.0)


@pytest.mark.parametrize(
    "kernel, n", [(np.eye(6), 0), (np.eye(6), 4), (np.eye(6), 2.0), (np.eye(6)[:, :3], 3)]
)
def test_historical_graph_refuses_a_malformed_layout(kernel, n):
    # n = 0 raised ZeroDivisionError on n_params, and an n that does not divide
    # the kernel's side failed in historical_embedding's reshape
    with pytest.raises(InputError):
        HistoricalGraph(kernel, n)


def test_historical_kernel_inner_product_refuses_epsilon():
    # the inner-product kernel has no bandwidth, so a set epsilon would be ignored
    mats, _ = _family(4, [115, 116])
    with pytest.raises(InputError, match="epsilon"):
        historical_kernel(mats, t=2, epsilon=-5.0, variant=INNER_PRODUCT)


def _historical_reference(mats, t, epsilon, variant):
    """The kernel assembled whole and then mirrored with np.triu."""
    n = mats[0].n
    powers = [np.linalg.matrix_power(mat.values, t) for mat in mats]
    big = np.zeros((len(mats) * n, len(mats) * n))
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            cross = powers[a] @ powers[b]
            if variant == INNER_PRODUCT:
                block = n * cross
            else:
                sq_a = np.einsum("ik,ik->i", powers[a], powers[a])
                sq_b = np.einsum("ik,ik->i", powers[b], powers[b])
                d2 = np.maximum(n * (sq_a[:, None] + sq_b[None, :] - 2.0 * cross), 0.0)
                block = np.exp(-np.sqrt(d2) / epsilon)
            big[a * n : (a + 1) * n, b * n : (b + 1) * n] = block
    if variant == EXPONENTIAL:
        np.fill_diagonal(big, 1.0)
    big = np.triu(big)
    return big + np.triu(big, 1).T


@pytest.mark.parametrize("variant, epsilon", [(INNER_PRODUCT, None), (EXPONENTIAL, 0.8)])
def test_historical_kernel_assembled_in_place(variant, epsilon):
    # no whole-kernel temporary: the peak stays within half a kernel of the
    # kernel itself, and the result equals the whole-array mirror bit for bit
    mats, _ = _family(100, range(121, 129))
    hist, peak = peak_bytes(lambda: historical_kernel(mats, t=2, epsilon=epsilon, variant=variant))
    assert peak <= 1.5 * hist.kernel.nbytes
    assert np.array_equal(hist.kernel, _historical_reference(mats, 2, epsilon, variant))


def test_historical_embedding_identical_graphs_constant_trajectories():
    mat, _ = random_instance(5, seed=118)
    hist = historical_kernel([mat, mat, mat], t=1, epsilon=1.0)
    coords, trajectories = historical_embedding(hist, s=2, dims=3)
    assert coords.shape == (15, 3)
    assert len(trajectories) == 5
    for traj in trajectories:
        assert len(traj) == 3
        np.testing.assert_allclose(traj[0], traj[1], atol=1e-8)
        np.testing.assert_allclose(traj[0], traj[2], atol=1e-8)


def test_historical_embedding_matches_big_graph_distances():
    mats, _ = _family(4, [119, 120])
    hist = historical_kernel(mats, t=1, epsilon=1.5)
    s = 2
    coords, trajectories = historical_embedding(hist, s=s, dims=8)
    dec = spectral_decomposition(diffusion_matrix(KernelMatrix(hist.kernel)), 8)
    for p in range(8):
        for q in range(8):
            expected = diffusion_distance(dec, dec, p, q, s)
            got = float(np.linalg.norm(coords[p] - coords[q]))
            assert got == pytest.approx(expected, abs=1e-8)
    # trajectory bookkeeping: row alpha of point x sits at alpha * n + x
    for x in (0, 3):
        for alpha in (0, 1):
            np.testing.assert_array_equal(trajectories[x, alpha], coords[alpha * 4 + x])
