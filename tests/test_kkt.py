"""Tests for the saddle-point solvers: banded direct solve and PPCG."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from falsify import kkt
from falsify.formulation import constraint_jacobian
from falsify.hessian import VARIANTS, HessianApprox, init_identity
from falsify.kkt import (
    Breakdown,
    SaddleSystem,
    SingularSystem,
    _ConstraintProjector,
    _layout,
    solve_direct,
    solve_ppcg,
)
from falsify.shooting import evaluate_segments
from oracles import (
    benchmark3_instance,
    direct_three_pass,
    ldl_pivot_magnitudes,
    random_vector_near_guess,
)


def full_hessian(mat):
    dim = mat.shape[0]
    return HessianApprox("full", dim - 1, 1, np.asarray(mat, dtype=float)[None])


def hessian_in_blocks(variant, n, n_segments, mat):
    """The approximation holding the diagonal blocks of ``mat``, which has
    no nonzero outside the variant's pattern."""
    width = mat.shape[0] if variant == "full" else n + 1
    blocks = np.array([mat[i : i + width, i : i + width] for i in range(0, len(mat), width)])
    hess = HessianApprox(variant, n, n_segments, blocks)
    assert np.array_equal(hess.dense_copy(), mat)
    return hess


def random_spd_system(rng, m1, m2):
    a = rng.standard_normal((m1, m1))
    hess = full_hessian(a @ a.T + m1 * np.eye(m1))
    jac = sp.csc_matrix(rng.standard_normal((m1, m2)))
    return SaddleSystem(hess, jac, rng.standard_normal(m1), rng.standard_normal(m2))


def test_hand_example():
    """H = I, a single constraint on the first coordinate, zero rhs_bottom:
    the step must move only along the free coordinate and the multiplier
    must absorb the constrained component of the gradient."""
    system = SaddleSystem(
        full_hessian(np.eye(2)),
        sp.csc_matrix(np.array([[1.0], [0.0]])),
        np.array([1.0, 1.0]),
        np.array([0.0]),
    )
    for solve in (solve_direct, solve_ppcg):
        sol = solve(system)
        np.testing.assert_allclose(sol.d_x, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sol.d_lambda, [1.0], atol=1e-14)
        assert system.residual(sol.d_x, sol.d_lambda) < 1e-12


def test_ppcg_matches_direct_on_random_systems():
    rng = np.random.default_rng(211)
    for m1, m2 in ((8, 3), (12, 5), (20, 8), (15, 1)):
        system = random_spd_system(rng, m1, m2)
        direct = solve_direct(system)
        iterative = solve_ppcg(system)
        scale = np.linalg.norm(direct.d_x)
        assert np.linalg.norm(iterative.d_x - direct.d_x) / scale < 1e-9
        assert (
            np.linalg.norm(iterative.d_lambda - direct.d_lambda)
            / max(1.0, np.linalg.norm(direct.d_lambda))
            < 1e-9
        )


def test_unconstrained_identity_converges_in_one_iteration():
    rng = np.random.default_rng(227)
    system = SaddleSystem(
        init_identity("full", 3, 4), sp.csc_matrix((16, 0)), rng.standard_normal(16), np.zeros(0)
    )
    sol = solve_ppcg(system)
    assert sol.cg_iterations == 1
    np.testing.assert_allclose(sol.d_x, system.rhs_top, rtol=1e-14)
    assert sol.d_lambda.shape == (0,)


def test_unconstrained_plain_cg_matches_direct():
    rng = np.random.default_rng(229)
    a = rng.standard_normal((10, 10))
    hess = full_hessian(a @ a.T + 10 * np.eye(10))
    system = SaddleSystem(hess, sp.csc_matrix((10, 0)), rng.standard_normal(10), np.zeros(0))
    direct = solve_direct(system)
    iterative = solve_ppcg(system)
    np.testing.assert_allclose(iterative.d_x, direct.d_x, rtol=1e-8)


def test_breakdown_on_indefinite_reduced_hessian():
    system = SaddleSystem(
        full_hessian(np.diag([1.0, -1.0])),
        sp.csc_matrix(np.array([[1.0], [0.0]])),
        np.array([0.0, 1.0]),
        np.array([0.0]),
    )
    with pytest.raises(Breakdown):
        solve_ppcg(system)
    # the same system is still solvable by the symmetric-indefinite oracle
    sol = solve_direct(system)
    np.testing.assert_allclose(sol.d_x, [0.0, -1.0], atol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_direct_solve_that_overflows_is_singular():
    """H = 1e-300 I passes the pivot test, but its solution 1e310 overflows
    to inf and the residual reads NaN, which fails the residual check."""
    system = SaddleSystem(
        full_hessian(1e-300 * np.eye(2)), sp.csc_matrix((2, 0)), np.full(2, 1e10), np.zeros(0)
    )
    with pytest.raises(SingularSystem, match="residual nan"):
        solve_direct(system)


def random_indefinite_system(rng, m1, m2):
    a = rng.standard_normal((m1, m1))
    jac = sp.csc_matrix(rng.standard_normal((m1, m2)))
    return SaddleSystem(
        full_hessian(a + a.T), jac, rng.standard_normal(m1), rng.standard_normal(m2)
    )


def assert_agrees_with_the_three_pass_oracle(system):
    """Both solves pass their residual checks, and their solutions differ by
    at most 10 eps kappa_2(K) relative: the two factorizations are backward
    stable, so each lies within a small multiple of eps kappa of the exact
    solution."""
    ours, oracle = solve_direct(system), direct_three_pass(system)
    tolerance = 1e-10 * (1.0 + np.linalg.norm(system.rhs()))
    assert system.residual(ours.d_x, ours.d_lambda) < tolerance
    assert system.residual(oracle.d_x, oracle.d_lambda) < tolerance
    found = np.concatenate([ours.d_x, ours.d_lambda])
    expected = np.concatenate([oracle.d_x, oracle.d_lambda])
    kappa = np.linalg.cond(system.dense_matrix())
    difference = np.linalg.norm(found - expected) / np.linalg.norm(expected)
    assert difference <= 10 * np.finfo(float).eps * kappa


def test_direct_solve_agrees_with_the_three_pass_oracle():
    """The banded LU step matches the dense LDL^T step on indefinite systems
    whose upper LDL^T needs 2x2 pivots; the largest has the size of the
    wide-linear direct cells (kappa about 1e5)."""
    rng = np.random.default_rng(257)
    for m1, m2 in ((6, 2), (40, 17), (120, 80), (420, 382)):
        system = random_indefinite_system(rng, m1, m2)
        _, d_factor, _ = scipy.linalg.ldl(system.dense_matrix(), lower=False)
        assert np.diag(d_factor, 1).any()
        assert_agrees_with_the_three_pass_oracle(system)


@st.composite
def structured_saddle_systems(draw, definite=None):
    """A saddle system with H in one variant's pattern, SPD or indefinite but
    nonsingular (diagonally dominant), and a full-rank sparse B.
    ``definite=True`` keeps H positive definite."""
    variant = draw(st.sampled_from(VARIANTS))
    n, n_segments = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    m1 = n_segments * (n + 1)
    m2 = draw(st.integers(0, m1))
    if definite is None:
        definite = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    block = np.arange(m1) // (n + 1)
    reach = {"full": n_segments, "blockdiag": 0}[variant]
    a = rng.standard_normal((m1, m1))
    hess = (a + a.T) * (np.abs(block[:, None] - block[None, :]) <= reach)
    signs = np.ones(m1) if definite else rng.choice([-1.0, 1.0], m1)
    hess += np.diag(signs * (np.abs(hess).sum(axis=1) + 1.0))

    jac = rng.standard_normal((m1, m2)) * (rng.random((m1, m2)) < 0.3)
    jac[rng.permutation(m1)[:m2], np.arange(m2)] = 1.0 + rng.random(m2)
    assume(np.linalg.matrix_rank(jac) == m2)
    system = SaddleSystem(
        hessian_in_blocks(variant, n, n_segments, hess),
        sp.csc_matrix(jac),
        rng.standard_normal(m1),
        rng.standard_normal(m2),
    )
    # an indefinite H can still leave the reduced Hessian nearly singular
    assume(np.linalg.cond(system.dense_matrix()) < 1e8)
    return system


@settings(derandomize=True, deadline=None, database=None)
@given(structured_saddle_systems())
def test_direct_solve_agrees_with_the_oracle_on_structured_systems(system):
    assert_agrees_with_the_three_pass_oracle(system)


@settings(derandomize=True, deadline=None, database=None)
@given(structured_saddle_systems(definite=True))
def test_both_solvers_meet_the_kkt_residual_on_positive_definite_systems(system):
    scale = np.linalg.norm(system.rhs())
    for solve in (solve_ppcg, solve_direct):
        solution = solve(system)
        assert system.residual(solution.d_x, solution.d_lambda) <= 1e-10 * scale, solve.__name__


def test_nearly_parallel_constraints_are_singular():
    jac = sp.csc_matrix(np.array([[1.0, 1.0], [0.0, 1e-7]]))
    system = SaddleSystem(full_hessian(np.eye(2)), jac, np.ones(2), np.zeros(2))
    pivots = ldl_pivot_magnitudes(system.dense_matrix())
    assert pivots.min() < 1e-12 * pivots.max()
    for solve in (solve_direct, direct_three_pass):
        with pytest.raises(SingularSystem, match="numerically singular"):
            solve(system)


def test_singular_direct_solve_raises():
    # duplicated constraint -> singular saddle matrix
    jac = sp.csc_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    system = SaddleSystem(
        full_hessian(np.eye(2)), jac, np.ones(2), np.zeros(2)
    )
    for solve in (solve_direct, direct_three_pass):
        with pytest.raises(SingularSystem, match="numerically singular"):
            solve(system)
    with pytest.raises(Breakdown, match="constraint preconditioner singular"):
        solve_ppcg(system)


def band_spy(monkeypatch):
    """(kl, ku) of every gbtrf call of the direct solve."""
    seen = []
    factor = kkt._gbtrf

    def spy(band, kl, ku, **kwargs):
        seen.append((kl, ku))
        return factor(band, kl, ku, **kwargs)

    monkeypatch.setattr(kkt, "_gbtrf", spy)
    return seen


def benchmark3_saddle_system(rng, n=4, n_segments=5):
    """A saddle system of benchmark3 n4 N5 eq8 near its initial guess, with
    random SPD `blockdiag` blocks that are not the identity."""
    instance = benchmark3_instance(n, n_segments)
    vec = random_vector_near_guess(instance, rng)
    jac = constraint_jacobian("matching_boundary", instance, vec, evaluate_segments(instance, vec))
    a = rng.standard_normal((n_segments, n + 1, n + 1))
    hess = HessianApprox("blockdiag", n, n_segments, a @ a.transpose(0, 2, 1) + np.eye(n + 1))
    return SaddleSystem(
        hess, jac, rng.standard_normal(hess.dim), rng.standard_normal(jac.shape[1])
    )


def test_multiple_shooting_saddle_matrix_has_a_narrow_band(monkeypatch):
    """On benchmark3 n4 N5 eq8 with `blockdiag` blocks, the segment order
    [x_i, t_i, lambda_i] gives a half-bandwidth of at most 2n + 1; with the
    multipliers after all primal rows, the joint columns' entries on the
    next segment would lie about m1 rows from the diagonal.  The projector's
    P is as narrow, with G = H and with G = I (a `full` H)."""
    n = 4
    rng = np.random.default_rng(271)
    system = benchmark3_saddle_system(rng, n)
    hess, jac = system.hess, system.jac
    seen = band_spy(monkeypatch)
    assert_agrees_with_the_three_pass_oracle(system)
    (kl, ku), = seen
    assert kl <= 2 * n + 1 and ku <= 2 * n + 1
    # the order the band was read from, checked on the dense matrix
    order = _layout(hess, jac).order
    rows, cols = np.nonzero(system.dense_matrix()[np.ix_(order, order)])
    assert (kl, ku) == (np.max(rows - cols), np.max(cols - rows))

    full = HessianApprox("full", n, hess.n_segments, hess.dense_copy()[None])
    for projected in (system, replace(system, hess=full)):
        seen.clear()
        solve_ppcg(projected)
        (kl, ku), = seen
        assert kl <= 2 * n + 1 and ku <= 2 * n + 1


def test_ppcg_with_blockdiag_hessian_takes_one_iteration():
    """With G = H, P is the saddle matrix itself: projected CG ends after
    one iteration, at the direct solve's step."""
    rng = np.random.default_rng(281)
    system = benchmark3_saddle_system(rng)
    assert not np.array_equal(system.hess.blocks[0], np.eye(5))
    iterative, direct = solve_ppcg(system), solve_direct(system)
    assert iterative.cg_iterations == 1
    found = np.concatenate((iterative.d_x, iterative.d_lambda))
    expected = np.concatenate((direct.d_x, direct.d_lambda))
    assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)


def test_constraint_without_entries_goes_last_and_is_singular():
    """A B column with no stored entry sorts after every other row, and its
    zero row and column leave gbtrf an exactly zero pivot."""
    hess = init_identity("blockdiag", 2, 3)
    jac = np.zeros((hess.dim, 3))
    jac[[1, 7], 1] = 1.0
    jac[[4, 8], 2] = 1.0
    jac = sp.csc_matrix(jac)
    order = _layout(hess, jac).order
    assert order.tolist() == [0, 1, 2, 10, 3, 4, 5, 11, 6, 7, 8, 9]
    system = SaddleSystem(hess, jac, np.ones(hess.dim), np.ones(3))
    with pytest.raises(SingularSystem, match="exactly zero"):
        solve_direct(system)


def test_exactly_singular_matrix_is_singular_not_a_step():
    """A zero H without constraints: gbtrf reports a zero pivot (info > 0),
    and the solve raises before gbtrs could divide by it."""
    system = SaddleSystem(
        HessianApprox("blockdiag", 1, 2, np.zeros((2, 2, 2))), sp.csc_matrix((4, 0)),
        np.ones(4), np.zeros(0),
    )
    with pytest.raises(SingularSystem, match="exactly zero"):
        solve_direct(system)


def test_max_iter_caps_work():
    rng = np.random.default_rng(233)
    system = random_spd_system(rng, 30, 4)
    sol = solve_ppcg(system, max_iter=2)
    assert sol.cg_iterations == 2


def test_saddle_system_validation():
    with pytest.raises(ValueError):
        SaddleSystem(init_identity("full", 2, 2), None, np.zeros(5), np.zeros(0))
    with pytest.raises(ValueError):
        SaddleSystem(init_identity("full", 2, 2), None, np.zeros(6), np.zeros(0))
    with pytest.raises(ValueError):
        SaddleSystem(
            init_identity("full", 2, 2),
            sp.csc_matrix(np.zeros((6, 3))),
            np.zeros(6),
            np.zeros(2),
        )


@pytest.mark.parametrize("fmt", ["csr", "coo"])
def test_saddle_system_holds_b_in_csc(fmt):
    """A B in another sparse format is converted to CSC once, when the
    system is built, and both rungs then solve it to the bits of the system
    built from CSC; a CSC B is kept as it is."""
    rng = np.random.default_rng(263)
    jac = matching_jacobian(rng, 3, 4)
    for hess in projector_hessians(rng, 3, 4):
        rhs_top, rhs_bottom = rng.standard_normal(hess.dim), rng.standard_normal(jac.shape[1])
        csc = sp.csc_matrix(jac)
        reference = SaddleSystem(hess, csc, rhs_top, rhs_bottom)
        assert reference.jac is csc
        system = SaddleSystem(hess, sp.csc_matrix(jac).asformat(fmt), rhs_top, rhs_bottom)
        assert system.jac.format == "csc"
        for solve in (solve_direct, solve_ppcg):
            ours, theirs = solve(system), solve(reference)
            assert ours.d_x.tobytes() == theirs.d_x.tobytes()
            assert ours.d_lambda.tobytes() == theirs.d_lambda.tobytes()
            assert ours.cg_iterations == theirs.cg_iterations


def test_residual_definition():
    rng = np.random.default_rng(251)
    system = random_spd_system(rng, 5, 2)
    d_x = rng.standard_normal(5)
    d_lam = rng.standard_normal(2)
    top = system.hess.dense_copy() @ d_x + system.jac.toarray() @ d_lam - system.rhs_top
    bottom = system.jac.toarray().T @ d_x - system.rhs_bottom
    expected = np.sqrt(np.sum(top**2) + np.sum(bottom**2))
    assert system.residual(d_x, d_lam) == pytest.approx(expected, rel=1e-14)


def matching_jacobian(rng, n, n_segments):
    """A random B shaped like the matching constraints' Jacobian: column
    i n + j couples segment i's n + 1 entries with state j of segment i + 1."""
    width = n + 1
    jac = np.zeros((n_segments * width, (n_segments - 1) * n))
    for i in range(n_segments - 1):
        for j in range(n):
            jac[i * width : (i + 1) * width, i * n + j] = rng.standard_normal(width)
            jac[(i + 1) * width + j, i * n + j] = -1.0
    return jac


def projector_hessians(rng, n, n_segments):
    """A `full` and a `blockdiag` SPD approximation: the projector's G is the
    identity for the first and H itself for the second."""
    dim = n_segments * (n + 1)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((n_segments, n + 1, n + 1))
    return (
        HessianApprox("full", n, n_segments, (a @ a.T + dim * np.eye(dim))[None]),
        HessianApprox("blockdiag", n, n_segments, b @ b.transpose(0, 2, 1) + np.eye(n + 1)),
    )


def preconditioner_matrix(hess, jac):
    """The dense P = [[G, B], [B^T, 0]], G = H for `blockdiag`, else I."""
    m1, m2 = jac.shape
    gmat = hess.dense_copy() if hess.variant == "blockdiag" else np.eye(m1)
    return np.block([[gmat, jac], [jac.T, np.zeros((m2, m2))]])


def assert_projector_matches_the_dense_oracle(hess, jac, rng):
    """project and constraint_point against P solved densely."""
    m1, m2 = jac.shape
    projector = _ConstraintProjector(hess, sp.csc_matrix(jac))
    dense = preconditioner_matrix(hess, jac)
    r, c = rng.standard_normal(m1), rng.standard_normal(m2)
    g, v, rg = projector.project(r)
    expected = np.linalg.solve(dense, np.concatenate((r, np.zeros(m2))))
    np.testing.assert_allclose(g, expected[:m1], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(v, expected[m1:], rtol=1e-10, atol=1e-12)
    assert rg == pytest.approx(r @ expected[:m1], rel=1e-12)
    assert np.linalg.norm(jac.T @ g) <= 1e-12 * np.linalg.norm(r)
    expected = np.linalg.solve(dense, np.concatenate((np.zeros(m1), c)))
    np.testing.assert_allclose(
        projector.constraint_point(c), expected[:m1], rtol=1e-10, atol=1e-12
    )


def projector_bands(monkeypatch, jac, n, n_segments, rng):
    """(kl, ku) of the projector's factor for each G, after checking the
    projection against the dense oracle and the band against the pattern of
    P in segment order."""
    seen = band_spy(monkeypatch)
    for hess in projector_hessians(rng, n, n_segments):
        assert_projector_matches_the_dense_oracle(hess, jac, rng)
        order = _layout(hess, sp.csc_matrix(jac)).order
        rows, cols = np.nonzero(preconditioner_matrix(hess, jac)[np.ix_(order, order)])
        assert seen[-1] == (np.max(rows - cols), np.max(cols - rows))
    return seen


@pytest.mark.parametrize("permuted", [False, True])
def test_projector_reads_the_bandwidth_from_the_pattern(monkeypatch, permuted):
    """Under the matching constraints P's band is at most 2n + 1 wide for
    both G, also with B's columns permuted, which the segment order undoes."""
    n, n_segments = 3, 6
    rng = np.random.default_rng(263)
    jac = matching_jacobian(rng, n, n_segments)
    if permuted:
        jac = jac[:, rng.permutation(jac.shape[1])]
    for kl, ku in projector_bands(monkeypatch, jac, n, n_segments, rng):
        assert kl <= 2 * n + 1 and ku <= 2 * n + 1


def test_projector_factors_a_coupling_constraint_with_a_wide_band(monkeypatch):
    """A constraint on the first and the last segment widens the band to
    about the whole matrix, and the projection still matches the oracle."""
    n, n_segments = 3, 6
    rng = np.random.default_rng(277)
    jac = matching_jacobian(rng, n, n_segments)
    coupling = np.zeros((jac.shape[0], 1))
    coupling[[0, -1]] = 1.0
    jac = np.hstack((jac, coupling))
    for kl, ku in projector_bands(monkeypatch, jac, n, n_segments, rng):
        assert max(kl, ku) >= jac.shape[0] - 1


@pytest.mark.parametrize("m2", [0, 1])
def test_projector_on_zero_and_one_constraints(m2):
    rng = np.random.default_rng(269)
    for hess in projector_hessians(rng, 3, 2):
        assert_projector_matches_the_dense_oracle(hess, rng.standard_normal((8, m2)), rng)


def assert_equals_a_cold_build(built, hess, jac, rng):
    """``built`` equals a _BandedSaddle of (hess, jac) built with an empty
    layout cache, bit for bit: lu, ipiv, kl, ku, order and a solve."""
    kkt._band_layout.cache_clear()
    cold = kkt._BandedSaddle(hess, jac)
    assert (built.kl, built.ku) == (cold.kl, cold.ku)
    assert np.array_equal(built.order, cold.order)
    assert built.lu.shape == cold.lu.shape and built.lu.tobytes() == cold.lu.tobytes()
    assert np.array_equal(built.ipiv, cold.ipiv)
    rhs = rng.standard_normal(sum(jac.shape))
    assert built.solve(rhs).tobytes() == cold.solve(rhs).tobytes()


def pattern_changes(rng):
    """(name, (hess, jac) before, (hess, jac) after) of four changes of the
    sparsity pattern that each change the band layout."""
    n, n_segments = 3, 4
    jac = sp.csc_matrix(matching_jacobian(rng, n, n_segments))
    identity = init_identity("blockdiag", n, n_segments)
    _, dense = projector_hessians(rng, n, n_segments)
    zeroed = jac.copy()
    zeroed.data[1] = 0.0
    zeroed.eliminate_zeros()
    moved = jac.copy()
    moved.indices[-1] += 1  # the last column's last entry, one row down
    a = rng.standard_normal((12, 12))
    spd = (a @ a.T + 12 * np.eye(12))[None]
    wide = sp.csc_matrix(rng.standard_normal((12, 5)))
    return [
        ("identity G, then dense blocks", (identity, jac), (dense, jac)),
        ("a B entry becomes exactly 0", (dense, jac), (dense, zeroed)),
        ("a B entry moves to another row of its column", (dense, jac), (dense, moved)),
        (
            "full G of equal block shape, other n",
            (HessianApprox("full", 2, 4, spd), wide),
            (HessianApprox("full", 3, 3, spd), wide),
        ),
    ]


@pytest.mark.parametrize(
    "change", range(4), ids=["dense_blocks", "zeroed_entry", "moved_entry", "other_n"]
)
def test_band_built_after_another_pattern_equals_a_cold_build(change):
    """The layout cache is keyed on everything that decides the layout:
    a band built right after a different pattern, and again from the cache,
    equals a cold build of its own."""
    rng = np.random.default_rng(283)
    name, before, after = pattern_changes(rng)[change]
    layouts = [
        [getattr(value, "tobytes", lambda: value)() for value in vars(_layout(*pair)).values()]
        for pair in (before, after)
    ]
    assert layouts[0] != layouts[1], name
    kkt._band_layout.cache_clear()
    kkt._BandedSaddle(*before)
    right_after = kkt._BandedSaddle(*after)
    from_the_cache = kkt._BandedSaddle(*after)
    for built in (right_after, from_the_cache):
        assert_equals_a_cold_build(built, *after, rng)


def test_layout_cache_is_bounded_and_holds_read_only_index_arrays():
    """More patterns than the cache holds: it keeps at most
    _LAYOUT_CACHE_SIZE layouts, each of integer arrays that cannot be
    written, and never a band or a factor."""
    kkt._band_layout.cache_clear()
    for n_segments in range(1, kkt._LAYOUT_CACHE_SIZE + 4):
        hess = init_identity("blockdiag", 2, n_segments)
        jac = sp.csc_matrix(np.ones((hess.dim, 1)))
        saddle = kkt._BandedSaddle(hess, jac)
        layout = _layout(hess, jac)
        arrays = [value for value in vars(layout).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 3
        for array in arrays:
            assert array.dtype.kind == "i" and not array.flags.writeable
            assert not np.shares_memory(array, saddle.lu)
        with pytest.raises(ValueError, match="read-only"):
            saddle.order[0] = 0
    info = kkt._band_layout.cache_info()
    assert info.currsize == kkt._LAYOUT_CACHE_SIZE
    assert info.misses == kkt._LAYOUT_CACHE_SIZE + 3
