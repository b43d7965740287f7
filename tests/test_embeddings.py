import numpy as np
import pytest

from dynamap import (
    InputError,
    canonical_subgraph_basis,
    common_embedding,
    diffusion_distance,
    diffusion_map,
    direct_diffusion_distance,
    gram_matrix,
    reference_subgraph_basis,
    subgraph_diffusion_distance,
    subgraph_rotation,
    truncate,
    truncation_residuals,
)
from dynamap.kernels import KernelMatrix
from dynamap.operators import diffusion_matrix, spectral_decomposition

from conftest import random_instance


def test_diffusion_map_all_ones_kernel():
    dec = spectral_decomposition(diffusion_matrix(KernelMatrix(np.ones((2, 2)))), 2)
    emb = diffusion_map(dec, 1)
    np.testing.assert_allclose(emb[:, 0], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(emb[:, 1], [0.0, 0.0], atol=1e-12)


def test_diffusion_map_second_moments():
    _, dec = random_instance(6, seed=41)
    for t in (1, 3):
        emb = diffusion_map(dec, t)
        moments = np.mean(emb**2, axis=0)
        np.testing.assert_allclose(moments, dec.eigenvalues ** (2 * t), atol=1e-10)


def test_diffusion_map_realizes_within_graph_distance():
    mat, dec = random_instance(5, seed=42)
    emb = diffusion_map(dec, 2)
    for x in range(5):
        for y in range(5):
            norm = float(np.linalg.norm(emb[x] - emb[y]))
            oracle = direct_diffusion_distance(mat, mat, x, y, 2)
            assert norm == pytest.approx(oracle, abs=1e-8)


def _isometry_defect(rot: np.ndarray) -> float:
    """max |R^T R - I|: zero when the rotation R preserves lengths."""
    return float(np.max(np.abs(rot.T @ rot - np.eye(rot.shape[1]))))


def test_rotation_identity_and_isometry():
    _, dec = random_instance(6, seed=43)
    rot = gram_matrix(dec, dec)
    np.testing.assert_allclose(rot, np.eye(6), atol=1e-12)
    _, other = random_instance(6, seed=44)
    cross = gram_matrix(dec, other)
    assert _isometry_defect(cross) <= 1e-6
    rng = np.random.default_rng(45)
    for _ in range(100):
        vec = rng.normal(size=6)
        assert np.linalg.norm(cross @ vec) == pytest.approx(
            np.linalg.norm(vec), abs=1e-8
        )


def test_truncated_rotation_reports_defect():
    _, dec = random_instance(6, seed=46)
    _, other = random_instance(6, seed=47)
    cross = gram_matrix(truncate(dec, 3), truncate(other, 3))
    assert np.isfinite(_isometry_defect(cross))
    assert _isometry_defect(cross) > 1e-6  # truncation genuinely loses isometry here


def test_common_embedding_single_member():
    _, dec = random_instance(5, seed=48)
    (only,) = common_embedding([dec], 0, t=2)
    np.testing.assert_allclose(only, diffusion_map(dec, 2), atol=1e-12)


def test_common_embedding_identical_members():
    _, dec = random_instance(5, seed=49)
    rotated = common_embedding([dec, dec], 0, t=1)
    within = np.linalg.norm(rotated[0][:, None, :] - rotated[0][None, :, :], axis=2)
    cross = np.linalg.norm(rotated[0][:, None, :] - rotated[1][None, :, :], axis=2)
    np.testing.assert_allclose(cross, within, atol=1e-10)


def test_common_embedding_realizes_cross_distances():
    family = [random_instance(6, seed=50 + k)[1] for k in range(3)]
    rotated = common_embedding(family, 0, t=1)
    worst = 0.0
    for a in range(3):
        for b in range(3):
            for x in range(6):
                for y in range(6):
                    expected = diffusion_distance(family[a], family[b], x, y, 1)
                    got = float(np.linalg.norm(rotated[a][x] - rotated[b][y]))
                    worst = max(worst, abs(got - expected))
    assert worst <= 1e-8


def test_rotation_preserves_within_graph_distances():
    family = [random_instance(6, seed=54 + k)[1] for k in range(2)]
    rotated = common_embedding(family, 0, t=2)
    raw = diffusion_map(family[1], 2)
    for x in range(6):
        for y in range(6):
            before = float(np.linalg.norm(raw[x] - raw[y]))
            after = float(np.linalg.norm(rotated[1][x] - rotated[1][y]))
            assert after == pytest.approx(before, abs=1e-8)


def test_truncation_residuals_vanish_at_full_rank():
    family = [random_instance(6, seed=60 + k)[1] for k in range(3)]
    res_full = truncation_residuals(family, gamma=0, t=1, rank=6)
    assert np.max(res_full) <= 1e-8
    res_cut = truncation_residuals(family, gamma=0, t=1, rank=3)
    assert np.all(res_cut >= 0.0) and np.all(np.isfinite(res_cut))
    assert np.max(res_cut) > np.max(res_full)


def test_common_embedding_validation():
    _, dec = random_instance(5, seed=63)
    with pytest.raises(InputError):
        common_embedding([dec], 1, t=1)


def test_subgraph_rotation_full_set_reduces_to_rotation():
    _, dec_ref = random_instance(5, seed=64)
    _, dec = random_instance(5, seed=65)
    rot = subgraph_rotation(dec, list(range(5)), dec_ref.eigenfunctions)
    np.testing.assert_allclose(rot, gram_matrix(dec_ref, dec), atol=1e-12)


def test_subgraph_rotation_canonical_basis_entries():
    _, dec = random_instance(5, seed=66)
    rot = subgraph_rotation(dec, list(range(5)), canonical_subgraph_basis(5))
    np.testing.assert_allclose(
        rot, dec.eigenfunctions / np.sqrt(5.0), atol=1e-12
    )


def test_subgraph_rotation_rejects_skewed_basis():
    _, dec = random_instance(5, seed=67)
    basis = canonical_subgraph_basis(5)
    basis[0, 1] = 0.5
    with pytest.raises(InputError):
        subgraph_rotation(dec, list(range(5)), basis)


@pytest.mark.parametrize("bad", [-1, 5])
def test_subgraph_bases_refuse_out_of_range_indices(bad):
    # -1 would wrap to the last point and 5 would overrun the 5-point graph
    _, dec = random_instance(5, seed=67)
    with pytest.raises(InputError, match=rf"s_indices={bad} out of range for n=5"):
        reference_subgraph_basis(dec, [0, 1, bad])
    with pytest.raises(InputError, match=rf"s_indices={bad} out of range for n=5"):
        subgraph_rotation(dec, [0, bad, 2], canonical_subgraph_basis(3))


@pytest.mark.parametrize("shared", [[0, 1.5, 2], [0, 1.9, 2], [True, False, True]])
def test_subgraph_bases_refuse_non_integer_indices(shared):
    # [0.2, 1.7] used to select points 0 and 1 without a word
    _, dec = random_instance(5, seed=67)
    with pytest.raises(InputError, match=r"point index s_indices=.* is not an integer"):
        reference_subgraph_basis(dec, shared)
    with pytest.raises(InputError, match=r"point index s_indices=.* is not an integer"):
        subgraph_rotation(dec, shared, canonical_subgraph_basis(3))


def test_subgraph_bases_empty_set_is_named_before_its_dtype():
    _, dec = random_instance(5, seed=67)
    with pytest.raises(InputError, match="S must be nonempty"):
        reference_subgraph_basis(dec, [])
    with pytest.raises(InputError, match="S must be nonempty"):
        subgraph_rotation(dec, [], canonical_subgraph_basis(1))


@pytest.mark.parametrize("basis_kind", ["canonical", "reference"])
def test_subgraph_identity_partial_overlap(basis_kind):
    mat_a, dec_a = random_instance(6, seed=68)
    mat_b, dec_b = random_instance(5, seed=69)
    idx_a, idx_b = [0, 2, 3, 5], [1, 2, 0, 4]
    if basis_kind == "canonical":
        basis = canonical_subgraph_basis(4)
    else:
        basis = reference_subgraph_basis(dec_a, idx_a)
    rot_a = subgraph_rotation(dec_a, idx_a, basis)
    rot_b = subgraph_rotation(dec_b, idx_b, basis)
    emb_a = diffusion_map(dec_a, 2) @ rot_a.T
    emb_b = diffusion_map(dec_b, 2) @ rot_b.T
    worst = 0.0
    for i in range(6):
        for j in range(5):
            direct = subgraph_diffusion_distance(mat_a, mat_b, idx_a, idx_b, i, j, 2)
            ident = float(np.linalg.norm(emb_a[i] - emb_b[j]))
            worst = max(worst, abs(direct - ident))
    assert worst <= 1e-6


def test_diffusion_map_rejects_bad_time():
    _, dec = random_instance(4, seed=70)
    with pytest.raises(InputError):
        diffusion_map(dec, 0)
