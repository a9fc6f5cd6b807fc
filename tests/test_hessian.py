"""Tests for the full and block-diagonal quasi-Newton updates."""

import warnings

import numpy as np
import pytest
from oracles import blockwise_update

from falsify.hessian import VARIANTS, HessianApprox, init_identity


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
    np.testing.assert_array_equal(h.dense_copy(), np.eye(20))
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
        np.testing.assert_allclose(h.dense_copy(), expected, rtol=1e-14, atol=1e-14)
    assert h.skip_count == 0


def test_full_update_satisfies_secant_equation():
    rng = np.random.default_rng(103)
    h = init_identity("full", 3, 2)
    for _ in range(10):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        np.testing.assert_allclose(h.dense_copy() @ s, y, rtol=1e-10, atol=1e-12)


def test_full_update_preserves_positive_definiteness():
    rng = np.random.default_rng(107)
    h = init_identity("full", 3, 4)
    for _ in range(50):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        dense = h.dense_copy()
        np.testing.assert_allclose(dense, dense.T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > 0.0
    assert h.skip_count == 0


def test_negative_curvature_skips_bitwise():
    rng = np.random.default_rng(109)
    for variant in ("full", "blockdiag"):
        h = init_identity(variant, 2, 3)
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        before = h.blocks.copy()
        skips_before = h.skip_count
        h.update(s, -s)  # y^T s = -||s||^2 < 0 everywhere
        assert np.array_equal(h.blocks, before), variant  # bitwise identical
        assert h.skip_count > skips_before, variant


def test_zero_step_skips():
    h = init_identity("full", 2, 2)
    h.update(np.zeros(h.dim), np.ones(h.dim))
    np.testing.assert_array_equal(h.dense_copy(), np.eye(h.dim))
    assert h.skip_count == 1


def test_degenerate_inner_curvature_skips():
    h = init_identity("full", 1, 1)
    h.blocks = np.diag([1.0, -1.0])[None]  # artificially indefinite
    s = np.array([0.0, 1.0])  # s^T H s = -1
    before = h.blocks.copy()
    h.update(s, s.copy())  # y^T s = 1 > 0, but s^T H s < 0
    assert np.array_equal(h.blocks, before)
    assert h.skip_count == 1


def test_indefinite_curvature_never_leaves_a_block_indefinite():
    """y = T s with an indefinite T passes the curvature test on some steps
    only, and the accepted updates drive the block towards singularity
    (without the conditioning test, Cholesky fails at update 85).  Every
    update keeps the block positive definite; the refused ones are
    counted as skips."""
    curvature = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    for variant in VARIANTS:
        rng = np.random.default_rng(0)
        h = init_identity(variant, 2, 1)
        negative = 0
        for _ in range(300):
            s = rng.standard_normal(3)
            y = curvature @ s
            negative += y @ s <= 0.0
            h.update(s, y)
            np.linalg.cholesky(h.dense_copy())
        assert h.skip_count > negative, variant


def test_blockdiag_structure_is_exact():
    rng = np.random.default_rng(113)
    n, n_seg = 2, 4
    width = n + 1
    h = init_identity("blockdiag", n, n_seg)
    off_block = ~np.kron(np.eye(n_seg, dtype=bool), np.ones((width, width), dtype=bool))
    for _ in range(20):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        assert h.blocks.shape == (n_seg, width, width)
        assert np.all(h.dense_copy()[off_block] == 0.0)


def test_blockdiag_blocks_equal_per_block_full_updates():
    rng = np.random.default_rng(127)
    n, n_seg = 3, 3
    width = n + 1
    h = init_identity("blockdiag", n, n_seg)
    blocks = [np.eye(width) for _ in range(n_seg)]
    for _ in range(15):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        dense = h.dense_copy()
        for i in range(n_seg):
            rows = slice(i * width, (i + 1) * width)
            si, yi = s[rows], y[rows]
            if yi @ si > 0 and si @ blocks[i] @ si > 0:
                blocks[i] = reference_bfgs(blocks[i], si, yi)
            np.testing.assert_allclose(dense[rows, rows], blocks[i], rtol=1e-13)


def test_blockdiag_blocks_stay_positive_definite():
    rng = np.random.default_rng(131)
    h = init_identity("blockdiag", 2, 5)
    for _ in range(50):
        s, y = curved_pair(rng, h.dim)
        h.update(s, y)
        for block in h.blocks:
            assert np.linalg.eigvalsh(block).min() > 0.0


def test_matvec_matches_dense():
    rng = np.random.default_rng(157)
    for variant in VARIANTS:
        h = init_identity(variant, 2, 4)
        for _ in range(5):
            s, y = curved_pair(rng, h.dim)
            h.update(s, y)
        v = rng.standard_normal(h.dim)
        np.testing.assert_allclose(h.matvec(v), h.dense_copy() @ v, rtol=1e-14)


def test_blocks_must_have_the_variant_shape():
    HessianApprox("blockdiag", 2, 3, np.ones((3, 3, 3)))
    HessianApprox("full", 2, 3, np.ones((1, 9, 9)))
    for variant, blocks in (("blockdiag", np.eye(9)), ("full", np.ones((3, 3, 3)))):
        with pytest.raises(ValueError, match="blocks must have shape"):
            HessianApprox(variant, 2, 3, blocks)


def test_update_rejects_wrong_shapes():
    h = init_identity("full", 2, 2)
    with pytest.raises(ValueError):
        h.update(np.zeros(5), np.zeros(6))


SKIP_REASONS = ("negative_curvature", "zero_step", "indefinite_block", "ill_conditioned", "nan")


def reason_block(reason, rng, width):
    """(block, s, y) of one block whose update takes the path ``reason``:
    "accepted" or one of SKIP_REASONS."""
    a = rng.standard_normal((width, width))
    block = a @ a.T + width * np.eye(width)
    s = rng.standard_normal(width)
    y = block @ s + 0.1 * rng.standard_normal(width)
    first = np.eye(width)[0]
    if reason == "negative_curvature":
        y = -s
    elif reason == "zero_step":
        s = np.zeros(width)
    elif reason == "indefinite_block":
        block = np.diag(np.where(first == 1.0, -1.0, 1.0))  # s^T H s = -1, y^T s = 1
        s, y = first, first
    elif reason == "ill_conditioned":
        # H = I, y = 1e-16 s: the update leaves diag(1e-16, 1, ..., 1)
        block, s, y = np.eye(width), first, 1e-16 * first
    elif reason == "nan":
        y[-1] = np.nan
    return block, s, y


def stacked(variant, n, n_segments, reasons, rng):
    """(HessianApprox, s, y) with one block per entry of ``reasons``."""
    h = init_identity(variant, n, n_segments)
    parts = [reason_block(reason, rng, h.blocks.shape[1]) for reason in reasons]
    h.blocks = np.array([block for block, _, _ in parts])
    return h, np.concatenate([s for _, s, _ in parts]), np.concatenate([y for _, _, y in parts])


def update_and_compare(h, s, y):
    expected_blocks, expected_skips = blockwise_update(h, s, y)
    h.update(s, y)
    assert h.blocks.tobytes() == expected_blocks.tobytes()
    assert h.skip_count == expected_skips


@pytest.mark.parametrize("seed", range(4))
def test_stacked_update_equals_the_blockwise_reference(seed):
    """Blocks that mix every skip reason with accepted updates, in a seeded
    order: the stacked update gives the reference's blocks bit for bit and
    its skip count."""
    rng = np.random.default_rng(seed)
    reasons = list(rng.permutation(2 * (*SKIP_REASONS, "accepted", "accepted")))
    h, s, y = stacked("blockdiag", 2, len(reasons), reasons, rng)
    update_and_compare(h, s, y)
    assert h.skip_count == 2 * len(SKIP_REASONS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_updates_follow_the_reference_through_a_run(variant):
    """300 updates with an indefinite curvature, whose accepted updates
    drive blocks towards singularity: every state and skip count is the
    reference's."""
    rng = np.random.default_rng(3)
    h = init_identity(variant, 2, 4)
    curvature = np.kron(np.eye(4), [[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(300):
        s = rng.standard_normal(h.dim)
        update_and_compare(h, s, curvature @ s)
    assert 0 < h.skip_count < 300 * h.blocks.shape[0]


@pytest.mark.parametrize("reason", SKIP_REASONS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_skip_path_warns(variant, reason):
    """Each skip path, on every block at once, raises no RuntimeWarning:
    the stacked update divides only on blocks that pass both curvature
    tests."""
    n, n_segments = (2, 3) if variant == "blockdiag" else (2, 1)
    h, s, y = stacked(variant, n, n_segments, [reason] * n_segments, np.random.default_rng(0))
    before = h.blocks.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h.update(s, y)
    assert np.array_equal(h.blocks, before)
    assert h.skip_count == n_segments
