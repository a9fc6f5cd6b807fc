"""Tests for objectives, regularizers, constraints, and their derivatives."""

import numpy as np
import pytest

from falsify.formulation import (
    FORMULATION_NAMES,
    Formulation,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    lagrangian_gradient,
    objective_gradient,
    objective_value,
)
from falsify.shooting import ShootingVector, evaluate_segments
from falsify.bench import initial_guess

from oracles import (
    TIGHT,
    benchmark2_instance,
    benchmark3_instance,
    constraint_jacobian_triplets,
    fd_flows,
    fd_gradient,
    fd_jacobian,
    lagrangian_gradient_direct,
    random_vector_near_guess,
    regularizer_gradient,
    relative_error,
    unpack_flat,
)

NAMED_COMBOS = {
    "eq5": ("endpoint_distance", "none", "matching"),
    "eq6": ("matching_gap", "none", "boundary"),
    "eq7": ("combined", "none", "none"),
    "eq8": ("zero", "total_squared", "matching_boundary"),
    "eq9": ("endpoint_distance", "total_squared", "matching"),
    "eq10": ("matching_gap", "total_squared", "boundary"),
    "eq11": ("matching_gap", "successive_difference", "boundary"),
    "eq12": ("matching_gap", "mean_deviation", "boundary"),
    "eq13": ("combined", "total_squared", "none"),
}


def flows_for(instance, vec):
    return evaluate_segments(instance, vec, TIGHT)


def test_named_formulations_cover_expected_combinations():
    assert FORMULATION_NAMES == tuple(NAMED_COMBOS)
    for name, (obj, reg, cons) in NAMED_COMBOS.items():
        form = Formulation.by_name(name)
        assert (form.objective, form.regularizer, form.constraints) == (obj, reg, cons)
        assert form.name == name


def test_unknown_names_and_combos_rejected():
    with pytest.raises(ValueError):
        Formulation.by_name("eq4")
    with pytest.raises(ValueError):
        Formulation("quadratic")
    with pytest.raises(ValueError):
        Formulation("zero", regularizer="l1")
    with pytest.raises(ValueError):
        Formulation("zero", constraints="inequality")


def test_constraint_dimensions():
    n, big_n = 3, 5
    assert constraint_dim("matching", n, big_n) == 12
    assert constraint_dim("matching_boundary", n, big_n) == 14
    assert constraint_dim("boundary", n, big_n) == 2
    assert constraint_dim("none", n, big_n) == 0


def test_regularizer_hand_values():
    instance = benchmark2_instance(n_segments=3)
    vec = ShootingVector(
        np.tile(instance.init.center, (3, 1)), np.array([1.0, 2.0, 3.0])
    )
    flows = flows_for(instance, vec)
    base = {
        "total_squared": 0.5 * (1.0 + 4.0 + 9.0),
        "successive_difference": 0.5 * (1.0 + 1.0),
        "mean_deviation": 0.5 * (1.0 + 0.0 + 1.0),
        "none": 0.0,
    }
    for reg, expected in base.items():
        form = Formulation("zero", regularizer=reg)
        assert objective_value(form, instance, vec, flows) == pytest.approx(expected)


def test_zero_objective_is_identically_zero():
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(1)
    vec = random_vector_near_guess(instance, rng)
    flows = flows_for(instance, vec)
    form = Formulation("zero")
    assert objective_value(form, instance, vec, flows) == 0.0
    np.testing.assert_array_equal(
        objective_gradient(form, instance, vec, flows), np.zeros(4 * 4)
    )


def test_endpoint_distance_on_centered_split():
    """Exact split from the center: both endpoint terms hit the -1/2 level."""
    instance = benchmark2_instance(n_segments=4)
    vec = initial_guess(instance, 4, u=np.zeros(3), cfg=TIGHT)
    flows = flows_for(instance, vec)
    form = Formulation.by_name("eq5")
    # x0^1 = c_I and the final end state = c_U, so both quadratics vanish
    assert objective_value(form, instance, vec, flows) == pytest.approx(0.0, abs=1e-16)
    gap_form = Formulation.by_name("eq6")
    assert objective_value(gap_form, instance, vec, flows) == pytest.approx(0.0, abs=1e-18)


def test_combined_objective_sums_terms():
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(2)
    vec = random_vector_near_guess(instance, rng)
    flows = flows_for(instance, vec)
    endpoint = objective_value(
        Formulation("endpoint_distance"), instance, vec, flows
    )
    gap = objective_value(
        Formulation("matching_gap"), instance, vec, flows
    )
    combined = objective_value(
        Formulation("combined"), instance, vec, flows
    )
    assert combined == pytest.approx(endpoint + gap, rel=1e-14)


@pytest.mark.parametrize("n_segments", [1, 5])
def test_objective_gradients_match_finite_differences(n_segments):
    instance = benchmark2_instance(n_segments=n_segments)
    rng = np.random.default_rng(31)
    vec = random_vector_near_guess(instance, rng)
    flat = np.column_stack([vec.states, vec.times]).ravel()
    flows_at = fd_flows(instance, flat)
    for name in FORMULATION_NAMES:
        form = Formulation.by_name(name)

        def value_at(z, form=form):
            return objective_value(form, instance, unpack_flat(instance, z), flows_at[z.tobytes()])

        analytic = objective_gradient(form, instance, vec, flows_for(instance, vec))
        assert relative_error(fd_gradient(value_at, flat), analytic) < 1e-6, name


def looped_objective_gradient(form, instance, vec, flows):
    """objective_gradient as a per-segment loop, the reference of its array form."""
    n, big_n = vec.dim, vec.n_segments
    grad = np.zeros((big_n, n + 1))
    if form.objective in ("endpoint_distance", "combined"):
        grad[0, :n] += instance.init.shape @ (vec.states[0] - instance.init.center)
        w = instance.unsafe_set.shape @ (flows.end_state[-1] - instance.unsafe_set.center)
        grad[-1, :n] += flows.sensitivity[-1].T @ w
        grad[-1, n] += float(flows.end_derivative[-1] @ w)
    if form.objective in ("matching_gap", "combined"):
        for i in range(big_n - 1):
            gap = vec.states[i + 1] - flows.end_state[i]
            grad[i + 1, :n] += gap
            grad[i, :n] -= flows.sensitivity[i].T @ gap
            grad[i, n] -= float(flows.end_derivative[i] @ gap)
    grad[:, n] += regularizer_gradient(form.regularizer, vec.times)
    return grad.ravel()


@pytest.mark.parametrize("n_segments", [1, 4])
def test_objective_gradient_equals_the_per_segment_loop(n_segments):
    rng = np.random.default_rng(37)
    for instance in (benchmark2_instance(n_segments), benchmark3_instance(4, n_segments)):
        vec = random_vector_near_guess(instance, rng)
        flows = flows_for(instance, vec)
        for name in FORMULATION_NAMES:
            form = Formulation.by_name(name)
            np.testing.assert_array_equal(
                objective_gradient(form, instance, vec, flows),
                looped_objective_gradient(form, instance, vec, flows),
                err_msg=name,
            )


def test_constraint_values_on_exact_split():
    instance = benchmark2_instance(n_segments=4)
    vec = initial_guess(instance, 4, u=np.zeros(3), cfg=TIGHT)
    flows = flows_for(instance, vec)
    matching = constraint_value("matching", instance, vec, flows)
    assert matching.shape == (9,)
    np.testing.assert_allclose(matching, np.zeros(9), atol=1e-9)
    full = constraint_value("matching_boundary", instance, vec, flows)
    assert full.shape == (11,)
    # order: init boundary row, matching rows, unsafe boundary row
    assert full[0] == pytest.approx(-0.5)
    np.testing.assert_allclose(full[1:-1], np.zeros(9), atol=1e-9)
    assert full[-1] == pytest.approx(-0.5, abs=1e-9)
    boundary = constraint_value("boundary", instance, vec, flows)
    np.testing.assert_allclose(boundary, [-0.5, -0.5], atol=1e-9)
    assert constraint_value("none", instance, vec, flows).shape == (0,)


def test_boundary_rows_vanish_on_the_boundaries():
    instance = benchmark2_instance(n_segments=1)
    start = instance.init.center + np.array([0.25, 0.0, 0.0])
    vec = ShootingVector(start[None, :], np.array([2.0]))
    flows = flows_for(instance, vec)
    value = constraint_value("boundary", instance, vec, flows)
    assert value[0] == pytest.approx(0.0, abs=1e-15)


def test_constraint_jacobians_match_finite_differences():
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(17)
    vec = random_vector_near_guess(instance, rng)
    flat = np.column_stack([vec.states, vec.times]).ravel()
    flows_at = fd_flows(instance, flat)
    for kind in ("matching", "matching_boundary", "boundary"):
        m2 = constraint_dim(kind, 3, 4)

        def constraints_at(z, kind=kind):
            return constraint_value(kind, instance, unpack_flat(instance, z), flows_at[z.tobytes()])

        analytic = constraint_jacobian(
            kind, instance, vec, flows_for(instance, vec)
        ).toarray()
        fd = fd_jacobian(constraints_at, flat, m2)
        assert relative_error(fd, analytic) < 1e-6, kind


def test_matching_jacobian_block_structure():
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(23)
    vec = random_vector_near_guess(instance, rng)
    flows = flows_for(instance, vec)
    n = 3
    jac = constraint_jacobian("matching", instance, vec, flows).toarray()
    for i in range(2):
        cols = slice(i * n, (i + 1) * n)
        base = i * (n + 1)
        np.testing.assert_allclose(
            jac[base : base + n, cols], -flows.sensitivity[i].T
        )
        np.testing.assert_allclose(jac[base + n, cols], -flows.end_derivative[i])
        np.testing.assert_array_equal(
            jac[base + n + 1 : base + 2 * n + 1, cols], np.eye(n)
        )
    # nothing outside the two block columns of segment i touches column block i
    assert np.all(jac[2 * (n + 1) + n, :] == 0.0)  # t-row of the last segment


def dense_constraint_jacobian(kind, instance, vec, flows):
    """B written entry by entry in the multipliers' column order."""
    n, big_n = vec.dim, vec.n_segments
    jac = np.zeros((big_n * (n + 1), constraint_dim(kind, n, big_n)))
    col = 0
    if kind in ("matching_boundary", "boundary"):
        jac[0:n, col] = instance.init.shape @ (vec.states[0] - instance.init.center)
        col += 1
    if kind in ("matching", "matching_boundary"):
        for i in range(big_n - 1):
            for c in range(n):
                for r in range(n):
                    jac[i * (n + 1) + r, col] = -flows.sensitivity[i][c, r]
                jac[i * (n + 1) + n, col] = -flows.end_derivative[i][c]
                jac[(i + 1) * (n + 1) + c, col] = 1.0
                col += 1
    if kind in ("matching_boundary", "boundary"):
        last = (big_n - 1) * (n + 1)
        w = instance.unsafe_set.shape @ (flows.end_state[-1] - instance.unsafe_set.center)
        jac[last : last + n, col] = flows.sensitivity[-1].T @ w
        jac[last + n, col] = flows.end_derivative[-1] @ w
    return jac


@pytest.mark.parametrize("n_segments", [1, 4])
def test_constraint_jacobian_matches_dense_assembly(n_segments):
    rng = np.random.default_rng(31)
    # the rotation's sensitivities hold exact zeros, which must not be stored
    for instance in (benchmark2_instance(n_segments), benchmark3_instance(4, n_segments)):
        vec = random_vector_near_guess(instance, rng)
        flows = flows_for(instance, vec)
        for kind in ("matching", "matching_boundary", "boundary", "none"):
            jac = constraint_jacobian(kind, instance, vec, flows)
            dense = dense_constraint_jacobian(kind, instance, vec, flows)
            assert jac.format == "csc" and jac.has_sorted_indices, kind
            assert np.all(jac.data != 0.0), kind
            assert jac.nnz == np.count_nonzero(dense), kind
            np.testing.assert_array_equal(jac.toarray(), dense, err_msg=kind)


@pytest.mark.parametrize("n_segments", [1, 4])
def test_constraint_jacobian_arrays_equal_the_triplet_build(n_segments):
    """The column-by-column CSC build stores the arrays that triplets, zero
    elimination and sorting give, bit for bit and with the same dtypes; the
    rotation's sensitivities hold exact zeros, which both leave out."""
    rng = np.random.default_rng(37)
    for instance in (benchmark2_instance(n_segments), benchmark3_instance(4, n_segments)):
        vec = random_vector_near_guess(instance, rng)
        flows = flows_for(instance, vec)
        for kind in ("matching", "matching_boundary", "boundary", "none"):
            built = constraint_jacobian(kind, instance, vec, flows)
            expected = constraint_jacobian_triplets(kind, instance, vec, flows)
            assert built.format == "csc" and built.shape == expected.shape, kind
            for name in ("data", "indices", "indptr"):
                found, wanted = getattr(built, name), getattr(expected, name)
                assert found.dtype == wanted.dtype, (kind, name)
                np.testing.assert_array_equal(found, wanted, err_msg=f"{kind} {name}")
    if n_segments > 1:
        # the last instance, benchmark3, leaves exact zeros in its joint columns
        joints = constraint_jacobian("matching", instance, vec, flows)
        assert joints.nnz < joints.shape[1] * (4 + 2)


def test_lagrangian_gradient_closed_forms_agree():
    instance = benchmark2_instance(n_segments=5)
    rng = np.random.default_rng(41)
    for name in ("eq8", "eq9", "eq10", "eq11", "eq12", "eq13"):
        form = Formulation.by_name(name)
        vec = random_vector_near_guess(instance, rng)
        flows = flows_for(instance, vec)
        m2 = constraint_dim(form.constraints, 3, 5)
        lam = rng.standard_normal(m2)
        assembled = lagrangian_gradient(
            objective_gradient(form, instance, vec, flows),
            constraint_jacobian(form.constraints, instance, vec, flows),
            lam,
        )
        direct = lagrangian_gradient_direct(form, instance, vec, lam, flows)
        np.testing.assert_allclose(direct, assembled, rtol=1e-12, atol=1e-12)


def test_lagrangian_gradient_direct_rejects_unsupported_combo():
    instance = benchmark2_instance(n_segments=3)
    form = Formulation.by_name("eq5")
    vec = initial_guess(instance, 3, u=np.zeros(3), cfg=TIGHT)
    flows = flows_for(instance, vec)
    lam = np.zeros(constraint_dim("matching", 3, 3))
    with pytest.raises(ValueError):
        lagrangian_gradient_direct(form, instance, vec, lam, flows)


def test_lagrangian_gradient_direct_rejects_wrong_multiplier_length():
    instance = benchmark2_instance(n_segments=3)
    vec = initial_guess(instance, 3, u=np.zeros(3), cfg=TIGHT)
    flows = flows_for(instance, vec)
    for name in ("eq8", "eq9", "eq10", "eq13"):
        form = Formulation.by_name(name)
        m2 = constraint_dim(form.constraints, 3, 3)
        lagrangian_gradient_direct(form, instance, vec, np.zeros(m2), flows)
        for wrong in (np.zeros(m2 + 1), np.zeros((1, m2))):
            with pytest.raises(ValueError, match=f"length {m2}"):
                lagrangian_gradient_direct(form, instance, vec, wrong, flows)


def test_zeroed_matching_residuals_isolate_duration_rows():
    """With the gap vectors nulled, only the regularizer remains in the
    duration rows of the closed-form gradient (except the last segment's,
    which keeps its boundary coupling).  Starts moved onto the previous
    segment's end state, with the same flows, give gaps that are exactly 0."""
    instance = benchmark2_instance(n_segments=5)
    rng = np.random.default_rng(47)
    vec = random_vector_near_guess(instance, rng)
    flows = flows_for(instance, vec)
    matched = ShootingVector(np.concatenate([vec.states[:1], flows.end_state[:-1]]), vec.times)
    for name in ("eq10", "eq13"):
        form = Formulation.by_name(name)
        m2 = constraint_dim(form.constraints, 3, 5)
        lam = rng.standard_normal(m2)
        grad = lagrangian_gradient_direct(form, instance, matched, lam, flows)
        t_rows = [i * 4 + 3 for i in range(5)]
        np.testing.assert_array_equal(grad[t_rows[:-1]], vec.times[:-1])


def test_lagrangian_gradient_matches_finite_differences():
    """FD of F + lam^T c in X equals the assembled Lagrangian gradient."""
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(53)
    form = Formulation.by_name("eq8")
    vec = random_vector_near_guess(instance, rng)
    flat = np.column_stack([vec.states, vec.times]).ravel()
    m2 = constraint_dim(form.constraints, 3, 4)
    lam = rng.standard_normal(m2)

    flows_at = fd_flows(instance, flat)

    def lagrangian_at(z):
        v = unpack_flat(instance, z)
        flows = flows_at[z.tobytes()]
        return objective_value(form, instance, v, flows) + float(
            lam @ constraint_value(form.constraints, instance, v, flows)
        )

    flows = flows_for(instance, vec)
    analytic = lagrangian_gradient(
        objective_gradient(form, instance, vec, flows),
        constraint_jacobian(form.constraints, instance, vec, flows),
        lam,
    )
    assert relative_error(fd_gradient(lagrangian_at, flat), analytic) < 1e-6


def test_matching_jacobian_never_singular_on_random_instances():
    """The matching Jacobian keeps full column rank structurally."""
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(59)
    for _ in range(10):
        vec = random_vector_near_guess(instance, rng)
        jac = constraint_jacobian(
            "matching", instance, vec, flows_for(instance, vec)
        ).toarray()
        sigma = np.linalg.svd(jac, compute_uv=False)
        assert sigma.min() > 1e-10


def test_boundary_jacobian_degenerate_at_the_centers():
    """Starting exactly at c_I zeroes the initial-boundary column."""
    instance = benchmark2_instance(n_segments=2)
    states = np.vstack([instance.init.center, instance.init.center + 0.1])
    vec = ShootingVector(states, np.array([1.0, 1.0]))
    flows = flows_for(instance, vec)
    jac = constraint_jacobian("boundary", instance, vec, flows).toarray()
    np.testing.assert_array_equal(jac[:, 0], np.zeros(8))
    sigma = np.linalg.svd(jac, compute_uv=False)
    assert sigma.min() < 1e-12
