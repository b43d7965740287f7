from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamap import (
    INNER_PRODUCT,
    DegeneracyError,
    InputError,
    NumericalError,
    PointCloud,
    calibrated_diffusion_matrix,
    canonical_subgraph_basis,
    common_embedding,
    diffusion_matrix,
    gaussian_kernel,
    historical_embedding,
    historical_kernel,
    kernel_power_row,
    meta_embedding,
    meta_kernel,
    sample_torus,
    spectral_decomposition,
    truncate,
    truncation_residuals,
)
from dynamap.datasets import TorusSpec
from dynamap.kernels import KernelMatrix
from dynamap.operators import DiffusionMatrix, SpectralDecomposition, apply_sign_convention

from conftest import (
    counting_eigsh,
    graph_laplacian,
    near_identity_kernel,
    random_kernel,
    refuse_dense_solves,
    transition_matrix,
)

THREE_BY_THREE = KernelMatrix(
    np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
)


def test_all_ones_kernel():
    mat = diffusion_matrix(KernelMatrix(np.ones((2, 2))))
    np.testing.assert_allclose(mat.values, [[0.5, 0.5], [0.5, 0.5]])
    eig = np.sort(np.linalg.eigvalsh(mat.values))
    np.testing.assert_allclose(eig, [0.0, 1.0], atol=1e-15)
    lap = graph_laplacian(mat)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(lap)), [0.0, 0.5], atol=1e-15)


def test_identity_dominant_kernel():
    tiny = 1e-12
    mat = diffusion_matrix(KernelMatrix(np.array([[1.0, tiny], [tiny, 1.0]])))
    np.testing.assert_allclose(mat.values, np.eye(2), atol=2 * tiny)
    np.testing.assert_allclose(np.linalg.eigvalsh(mat.values), [1.0, 1.0], atol=3 * tiny)


def test_identity_laplacian_is_zero():
    mat = DiffusionMatrix(values=np.eye(3))
    np.testing.assert_allclose(graph_laplacian(mat), np.zeros((3, 3)), atol=0)


def test_three_by_three_power_row_matches_brute_force():
    mat = diffusion_matrix(THREE_BY_THREE)
    for t in (1, 2, 3, 5):
        brute = mat.values.copy()
        for _ in range(t - 1):
            brute = brute @ mat.values
        for i in range(3):
            np.testing.assert_allclose(kernel_power_row(mat, t, i), brute[i], atol=1e-14)


def test_laplacian_spectrum_affine_map():
    mat = diffusion_matrix(THREE_BY_THREE)
    eig_a = np.linalg.eigvalsh(mat.values)
    eig_l = np.linalg.eigvalsh(graph_laplacian(mat))
    np.testing.assert_allclose(np.sort(eig_l), np.sort((1.0 - eig_a) / 2.0), atol=1e-10)


def test_decomposition_residual_and_orthonormality():
    mat = diffusion_matrix(THREE_BY_THREE)
    dec = spectral_decomposition(mat, 3)
    resid = np.abs(mat.values @ dec.eigenfunctions - dec.eigenfunctions * dec.eigenvalues)
    assert resid.max() <= 1e-10 * np.sqrt(mat.n)  # psi carries a sqrt(n) scale
    gram = dec.eigenfunctions.T @ dec.eigenfunctions / mat.n
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-8


def test_decomposition_all_ones_kernel():
    dec = spectral_decomposition(diffusion_matrix(KernelMatrix(np.ones((2, 2)))), 2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dec.eigenfunctions[:, 0], [1.0, 1.0], atol=1e-12)


def test_decomposition_identity_rank_one():
    mat = DiffusionMatrix(values=np.eye(4))
    dec = spectral_decomposition(mat, 1)
    assert dec.eigenvalues[0] == 1.0
    assert np.mean(dec.eigenfunctions[:, 0] ** 2) == pytest.approx(1.0)
    # sign rule: the largest-magnitude entry is positive
    col = dec.eigenfunctions[:, 0]
    assert col[np.argmax(np.abs(col))] > 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_reconstruction_and_top_eigenfunction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    kern = random_kernel(n, rng)
    mat = diffusion_matrix(kern)
    dec = spectral_decomposition(mat, n)
    assert np.array_equal(mat.values, mat.values.T)
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(dec.eigenvalues >= -1.0) and np.all(dec.eigenvalues <= 1.0)
    # positive kernels give a connected graph: simple top eigenvalue
    assert dec.eigenvalues[1] < 1.0 - 1e-9
    recon = (dec.eigenfunctions * dec.eigenvalues) @ dec.eigenfunctions.T / n
    assert np.max(np.abs(recon - mat.values)) <= 1e-8
    # top eigenfunction is the empirically normalized square root of the density
    sqrt_density = np.sqrt(kern.values.sum(axis=1) / n)
    expected = sqrt_density / np.sqrt(np.mean(sqrt_density**2))
    np.testing.assert_allclose(dec.eigenfunctions[:, 0], expected, atol=1e-8)


def test_transition_matrix_shares_spectrum():
    rng = np.random.default_rng(17)
    kern = random_kernel(6, rng)
    mat = diffusion_matrix(kern)
    eig_p = np.sort(np.linalg.eigvals(transition_matrix(kern)).real)
    eig_a = np.sort(np.linalg.eigvalsh(mat.values))
    np.testing.assert_allclose(eig_p, eig_a, atol=1e-10)


def test_power_row_matches_spectral_reconstruction():
    rng = np.random.default_rng(23)
    mat = diffusion_matrix(random_kernel(5, rng))
    dec = spectral_decomposition(mat, 5)
    for i in range(5):
        spectral = (
            dec.eigenfunctions * dec.eigenvalues**3
        ) @ dec.eigenfunctions[i] / mat.n
        np.testing.assert_allclose(kernel_power_row(mat, 3, i), spectral, atol=1e-10)


def test_sign_convention_is_idempotent_and_fixes_flips():
    rng = np.random.default_rng(5)
    mat = diffusion_matrix(random_kernel(6, rng))
    dec = spectral_decomposition(mat, 6)
    flipped = dec.eigenfunctions * np.array([1, -1, 1, -1, -1, 1.0])[None, :]
    np.testing.assert_array_equal(apply_sign_convention(flipped), dec.eigenfunctions)
    np.testing.assert_array_equal(
        apply_sign_convention(dec.eigenfunctions), dec.eigenfunctions
    )
    # equal magnitudes of opposite sign: the lower index decides, so the first
    # column stays and the second flips, its zero to -0.0 as negation gives
    tie = np.array([[0.5, -0.5], [-0.5, 0.5], [0.25, 0.0]])
    expected = np.array([[0.5, 0.5], [-0.5, -0.5], [0.25, -0.0]])
    out = apply_sign_convention(tie)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


def test_zero_degree_guard():
    corrupt = SimpleNamespace(values=np.array([[0.0, 0.0], [0.0, 1.0]]), n=2)
    with pytest.raises(DegeneracyError):
        diffusion_matrix(corrupt)


def test_eigenvalues_outside_unit_range_rejected():
    mat = DiffusionMatrix(values=np.diag([1.2, 0.5]))
    with pytest.raises(NumericalError):
        spectral_decomposition(mat, 2)


def test_rank_validation_and_truncate():
    rng = np.random.default_rng(2)
    mat = diffusion_matrix(random_kernel(4, rng))
    with pytest.raises(InputError):
        spectral_decomposition(mat, 0)
    with pytest.raises(InputError):
        spectral_decomposition(mat, 5)
    dec = spectral_decomposition(mat, 4)
    cut = truncate(dec, 2)
    assert cut.rank == 2 and cut.n == 4
    np.testing.assert_array_equal(cut.eigenvalues, dec.eigenvalues[:2])
    with pytest.raises(InputError):
        truncate(cut, 3)


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0), True], ids=["float", "float64", "bool"])
def test_counts_refuse_floats_and_bools(bad):
    # a float count raised a bare TypeError, and True was taken as 1
    mat = diffusion_matrix(random_kernel(4, np.random.default_rng(2)))
    dec = spectral_decomposition(mat, 4)
    meta = meta_kernel(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]))
    hist = historical_kernel([mat, mat], t=1, variant=INNER_PRODUCT)
    calls = {
        "rank": [
            lambda: spectral_decomposition(mat, bad),
            lambda: truncate(dec, bad),
            lambda: truncation_residuals([dec, dec], 0, 1, bad),
        ],
        "dims": [
            lambda: meta_embedding(meta, 1.0, bad),
            lambda: historical_embedding(hist, 1.0, bad),
        ],
        "gamma": [lambda: common_embedding([dec, dec], bad, 1)],
        "size": [lambda: canonical_subgraph_basis(bad)],
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(InputError, match=rf"{name} must be an integer in \["):
                call()


@pytest.mark.parametrize("lam, psi", [([], np.zeros((5, 0))), ([1.0], np.zeros((0, 1)))])
def test_decomposition_needs_an_eigenpair(lam, psi):
    # an empty spectrum raised a bare IndexError, and zero samples passed the
    # orthonormality check on a 0/0 Gram matrix
    with pytest.raises(InputError, match="k >= 1 eigenvalues"):
        SpectralDecomposition(np.array(lam), psi)


@pytest.mark.parametrize(
    "lam, psi, name",
    [
        ([np.nan], np.ones((4, 1)), "eigenvalues"),
        ([1.0], [[1.0], [np.nan], [1.0], [1.0]], "eigenfunctions"),
        ([1.0], [[1.0], [np.inf], [1.0], [1.0]], "eigenfunctions"),
    ],
)
def test_decomposition_refuses_non_finite_values(lam, psi, name):
    # NaN fails every comparison the other checks make, so it constructed
    with pytest.raises(InputError, match=f"{name} must be finite"):
        SpectralDecomposition(np.array(lam), np.array(psi))


def test_power_row_validation():
    rng = np.random.default_rng(2)
    mat = diffusion_matrix(random_kernel(4, rng))
    # True was taken as t = 1, and a float time is refused even when integral
    for bad_t in (0, True, 2.0):
        with pytest.raises(InputError, match="diffusion time"):
            kernel_power_row(mat, bad_t, 1)
    with pytest.raises(InputError):
        kernel_power_row(mat, 2, 7)
    # a list is not one row: it returned a 2 x n block
    with pytest.raises(InputError, match="point index i="):
        kernel_power_row(mat, 2, [0, 1])


@pytest.mark.parametrize("bad", [1.5, 1.9, True])
def test_power_row_refuses_non_integer_rows(bad):
    # a float raised a bare IndexError, and True selected a 1 x n block
    mat = diffusion_matrix(random_kernel(4, np.random.default_rng(2)))
    with pytest.raises(InputError, match=rf"point index i={bad} is not an integer"):
        kernel_power_row(mat, 2, bad)


def test_diffusion_matrix_leaves_the_kernel_unchanged():
    # the normalization runs in place, in a copy of the caller's kernel
    kern = random_kernel(70, np.random.default_rng(3))
    before = kern.values.copy()
    mat = diffusion_matrix(kern)
    assert np.array_equal(kern.values, before)
    inv_sqrt = 1.0 / np.sqrt(before.sum(axis=1))
    assert np.array_equal(mat.values, np.outer(inv_sqrt, inv_sqrt) * before)


def _dense_top(mat, rank):
    """Reference: full dense solve, truncated, under the same normalization."""
    lam, vec = np.linalg.eigh(mat.values)
    psi = apply_sign_convention(np.sqrt(mat.n) * vec[:, ::-1][:, :rank])
    return lam[::-1][:rank], psi


def test_lanczos_decomposition_matches_dense_on_torus(monkeypatch):
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    mat = diffusion_matrix(gaussian_kernel(cloud, calibrated_diffusion_matrix(cloud, 0.5)[0]))
    lam, psi = _dense_top(mat, 10)
    refuse_dense_solves(monkeypatch)
    dec = spectral_decomposition(mat, 10)
    assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12
    assert np.max(np.abs(dec.eigenfunctions - psi)) <= 1e-8
    again = spectral_decomposition(mat, 10)  # fixed start vector: repeatable
    assert np.array_equal(again.eigenvalues, dec.eigenvalues)
    assert np.array_equal(again.eigenfunctions, dec.eigenfunctions)


def test_lanczos_decomposition_on_ring_with_double_eigenvalues(monkeypatch):
    # equally spaced points on a circle: a circulant kernel whose eigenvalues
    # beyond the top one come in exact pairs (cosine and sine modes)
    n = 256
    theta = 2.0 * np.pi * np.arange(n) / n
    cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    mat = diffusion_matrix(gaussian_kernel(cloud, 0.5))
    dense = {rank: _dense_top(mat, rank) for rank in (2, 3, 5, 11)}
    refuse_dense_solves(monkeypatch)
    for rank, (lam, psi) in dense.items():
        dec = spectral_decomposition(mat, rank)
        assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12
        if rank % 2 == 1:
            # whole pairs kept: the eigenspace, not its basis, is determined
            kept = dec.eigenfunctions @ dec.eigenfunctions.T / n
            assert np.max(np.abs(kept - psi @ psi.T / n)) <= 1e-8


def test_near_identity_decomposition_falls_back_to_dense(monkeypatch):
    mat = diffusion_matrix(near_identity_kernel())
    lam, psi = _dense_top(mat, 2)
    stats = counting_eigsh(monkeypatch)
    dec = spectral_decomposition(mat, 2)
    assert stats["stalls"] == 1
    assert np.array_equal(dec.eigenvalues, np.clip(lam, -1.0, 1.0))
    assert np.array_equal(dec.eigenfunctions, psi)


def test_lanczos_wrong_eigenpair_fails_residual_check(monkeypatch):
    import scipy.sparse.linalg as ssl

    real = ssl.eigsh

    def rotated(*args, **kwargs):
        # still orthonormal, but mixes the top two eigenvectors
        lam, vec = real(*args, **kwargs)
        vec = vec.copy()
        vec[:, [-1, -2]] = (vec[:, [-1, -2]] @ np.array([[1.0, 1.0], [1.0, -1.0]])) / np.sqrt(2.0)
        return lam, vec

    monkeypatch.setattr(ssl, "eigsh", rotated)
    cloud = sample_torus(TorusSpec(), 300, seed=4)
    mat = diffusion_matrix(gaussian_kernel(cloud, 2.0))
    with pytest.raises(NumericalError, match="residual"):
        spectral_decomposition(mat, 3)
