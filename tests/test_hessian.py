"""Tests for the full and block-diagonal quasi-Newton updates."""

import numpy as np
import pytest

from falsify.hessian import HessianApprox, init_identity


def reference_bfgs(mat, s, y):
    """The rank-two formula, written out independently of the library."""
    hs = mat @ s
    return mat - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / (y @ s)


def curved_pair(rng, dim):
    """Random (s, y) with guaranteed positive curvature y^T s > 0."""
    a = rng.standard_normal((dim, dim))
    spd = a @ a.T + dim * np.eye(dim)
    s = rng.standard_normal(dim)
    return s, spd @ s


def test_init_identity_shapes():
    h = init_identity("full", 3, 5)
    assert h.dim == 20
    np.testing.assert_array_equal(h.mat, np.eye(20))
    with pytest.raises(ValueError):
        init_identity("diagonal", 3, 5)
    with pytest.raises(ValueError):
        init_identity("banded", 3, 5)
    with pytest.raises(ValueError):
        init_identity("full", 0, 5)


def test_full_update_matches_literal_formula():
    rng = np.random.default_rng(101)
    h = init_identity("full", 2, 3)
    expected = np.eye(h.dim)
    for _ in range(25):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        expected = reference_bfgs(expected, s, y)
        np.testing.assert_allclose(h.mat, expected, rtol=1e-14, atol=1e-14)
    assert h.skip_count == 0


def test_full_update_satisfies_secant_equation():
    rng = np.random.default_rng(103)
    h = init_identity("full", 3, 2)
    for _ in range(10):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        np.testing.assert_allclose(h.mat @ s, y, rtol=1e-10, atol=1e-12)


def test_full_update_preserves_positive_definiteness():
    rng = np.random.default_rng(107)
    h = init_identity("full", 3, 4)
    for _ in range(50):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        np.testing.assert_allclose(h.mat, h.mat.T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(h.mat).min() > 0.0
    assert h.skip_count == 0


def test_negative_curvature_skips_bitwise():
    rng = np.random.default_rng(109)
    for variant in ("full", "blockdiag"):
        h = init_identity(variant, 2, 3)
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        before = h.mat.copy()
        skips_before = h.skip_count
        h.update(s, -s)  # y^T s = -||s||^2 < 0 everywhere
        assert np.array_equal(h.mat, before), variant  # bitwise identical
        assert h.skip_count > skips_before, variant


def test_zero_step_skips():
    h = init_identity("full", 2, 2)
    h.update(np.zeros(h.dim), np.ones(h.dim))
    np.testing.assert_array_equal(h.mat, np.eye(h.dim))
    assert h.skip_count == 1


def test_degenerate_inner_curvature_skips():
    h = init_identity("full", 1, 1)
    h.mat = np.diag([1.0, -1.0])  # artificially indefinite
    s = np.array([0.0, 1.0])  # s^T H s = -1
    before = h.mat.copy()
    h.update(s, s.copy())  # y^T s = 1 > 0, but s^T H s < 0
    assert np.array_equal(h.mat, before)
    assert h.skip_count == 1


def test_blockdiag_structure_is_exact():
    rng = np.random.default_rng(113)
    n, n_seg = 2, 4
    width = n + 1
    h = init_identity("blockdiag", n, n_seg)
    off_block = ~np.kron(np.eye(n_seg, dtype=bool), np.ones((width, width), dtype=bool))
    for _ in range(20):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        assert np.all(h.mat[off_block] == 0.0)


def test_blockdiag_blocks_equal_per_block_full_updates():
    rng = np.random.default_rng(127)
    n, n_seg = 3, 3
    width = n + 1
    h = init_identity("blockdiag", n, n_seg)
    blocks = [np.eye(width) for _ in range(n_seg)]
    for _ in range(15):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        for i in range(n_seg):
            rows = slice(i * width, (i + 1) * width)
            si, yi = s[rows], y[rows]
            if yi @ si > 0 and si @ blocks[i] @ si > 0:
                blocks[i] = reference_bfgs(blocks[i], si, yi)
            np.testing.assert_allclose(h.mat[rows, rows], blocks[i], rtol=1e-13)


def test_blockdiag_blocks_stay_positive_definite():
    rng = np.random.default_rng(131)
    n, n_seg = 2, 5
    width = n + 1
    h = init_identity("blockdiag", n, n_seg)
    for _ in range(50):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        for i in range(n_seg):
            rows = slice(i * width, (i + 1) * width)
            assert np.linalg.eigvalsh(h.mat[rows, rows]).min() > 0.0


def test_matvec_matches_dense():
    rng = np.random.default_rng(157)
    for variant in ("full", "blockdiag"):
        h = init_identity(variant, 2, 4)
        for _ in range(5):
            s, y = curved_pair(rng, h.dim)
            h.update(s, y)
        v = rng.standard_normal(h.dim)
        np.testing.assert_allclose(h.matvec(v), h.dense_copy() @ v, rtol=1e-14)


def test_update_rejects_wrong_shapes():
    h = init_identity("full", 2, 2)
    with pytest.raises(ValueError):
        h.update(np.zeros(5), np.zeros(6))
