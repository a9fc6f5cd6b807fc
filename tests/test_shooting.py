"""Tests for ellipsoid geometry, shooting-vector layout, and segment flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from falsify.integrate import IntegrationFailure, IntegratorConfig, flow_with_sensitivity
from falsify.shooting import (
    Ellipsoid,
    ProblemInstance,
    ShootingVector,
    _min_quadratic_over_ellipsoid,
    evaluate_many,
    evaluate_segments,
    pack,
    unpack,
)
from falsify.systems import benchmark2

from oracles import TIGHT, benchmark2_instance, blowup_system


def test_ball_shape_matrix():
    ball = Ellipsoid.ball(np.zeros(3), 0.25)
    np.testing.assert_array_equal(ball.shape, 16.0 * np.eye(3))
    # points at distance exactly 1/4 sit on the unit level set
    surface = np.array([0.25, 0.0, 0.0])
    assert ball.quadratic(surface) == pytest.approx(1.0)
    assert ball.distance(surface) == pytest.approx(1.0)


def test_ellipsoid_distance_scales_with_shape():
    shape = np.diag([4.0, 1.0])
    ell = Ellipsoid(np.array([1.0, -1.0]), shape)
    v = np.array([2.0, -1.0])  # offset (1, 0): quadratic = 4
    assert ell.quadratic(v) == pytest.approx(4.0)
    assert ell.distance(v) == pytest.approx(2.0)


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))  # indefinite
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.eye(3))  # center/shape mismatch
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            Ellipsoid.ball(np.zeros(2), radius)


def test_pack_interleaves_states_and_durations():
    states = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    times = np.array([0.1, 0.2, 0.3])
    flat = pack(ShootingVector(states, times))
    np.testing.assert_array_equal(
        flat, [1.0, 2.0, 0.1, 3.0, 4.0, 0.2, 5.0, 6.0, 0.3]
    )
    # block i occupies rows i*(n+1) .. i*(n+1)+n
    n = 2
    for i in range(3):
        base = i * (n + 1)
        np.testing.assert_array_equal(flat[base : base + n], states[i])
        assert flat[base + n] == times[i]


@st.composite
def shooting_vectors(draw):
    n, n_segments = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    states = draw(hnp.arrays(float, (n_segments, n), elements=finite))
    return ShootingVector(states, draw(hnp.arrays(float, n_segments, elements=finite)))


@settings(derandomize=True, deadline=None, database=None)
@given(shooting_vectors())
def test_pack_unpack_roundtrip(vec):
    back = unpack(pack(vec), vec.dim, vec.n_segments)
    assert back.states.tobytes() == vec.states.tobytes()
    assert back.times.tobytes() == vec.times.tobytes()


def test_unpack_validates_length():
    with pytest.raises(ValueError):
        unpack(np.zeros(10), 3, 4)  # needs 16


def test_shooting_vector_validation():
    with pytest.raises(ValueError):
        ShootingVector(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        ShootingVector(np.zeros((2, 2)), np.zeros(3))


def test_instance_validation():
    system = benchmark2()
    ball = Ellipsoid.ball(np.ones(3), 0.25)
    far = Ellipsoid.ball(np.full(3, 9.0), 0.25)
    with pytest.raises(ValueError):
        ProblemInstance(system, ball, Ellipsoid.ball(np.ones(2), 0.25), 5)
    with pytest.raises(ValueError):
        ProblemInstance(system, ball, ball, 5)  # identical centers
    with pytest.raises(ValueError):
        ProblemInstance(system, ball, far, 0)


def test_overlapping_sets_warn():
    system = benchmark2()
    # centers 0.2*sqrt(3) ~ 0.35 apart: closer than the summed radii of 0.5
    near = Ellipsoid.ball(np.ones(3) + 0.2, 0.25)
    with pytest.warns(UserWarning, match="overlap"):
        ProblemInstance(system, Ellipsoid.ball(np.ones(3), 0.25), near, 3)


def test_disjoint_sets_do_not_warn(recwarn):
    benchmark2_instance(n_segments=3)
    assert not [w for w in recwarn if "overlap" in str(w.message)]


def test_unsafe_center_inside_the_initial_set_is_an_overlap_of_value_zero():
    system = benchmark2()
    init = Ellipsoid(np.ones(3), np.diag([16.0, 4.0, 1.0]))
    unsafe = Ellipsoid.ball(np.ones(3) + [0.0, 0.0, 0.9], 0.01)  # distinct center, inside init
    assert _min_quadratic_over_ellipsoid(init, unsafe) == 0.0
    with pytest.warns(UserWarning, match="overlap"):
        ProblemInstance(system, init, unsafe, 3)


def test_overlap_minimum_is_below_every_sampled_inner_point():
    """Root-finder-free bound: the minimum over the inner set never exceeds
    the quadratic at a point of that set.  The pairs mix interior cases
    (unsafe center inside the inner set) with boundary cases."""
    rng = np.random.default_rng(31)
    interior = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        shapes = []
        for _ in range(2):
            root = rng.standard_normal((n, n))
            shapes.append(root @ root.T + 10 ** rng.uniform(-8, 1) * np.eye(n))
        inner = Ellipsoid(rng.standard_normal(n), shapes[0])
        direction = rng.standard_normal(n)
        quad = Ellipsoid(inner.center + rng.uniform(0.0, 4.0) * direction / np.linalg.norm(direction), shapes[1])
        interior += inner.quadratic(quad.center) <= 1.0
        # points strictly inside the inner set: v = center + basis @ w, |w| < 1
        basis = np.linalg.inv(np.linalg.cholesky(inner.shape).T)
        w = rng.standard_normal((50, n))
        w *= rng.uniform(0.0, 1.0, (50, 1)) ** (1.0 / n) / np.linalg.norm(w, axis=1, keepdims=True)
        sampled = min(quad.quadratic(v) for v in inner.center + w @ basis.T)
        assert _min_quadratic_over_ellipsoid(inner, quad) <= sampled
    assert interior >= 20


def _brentq_min_quadratic(inner, quad):
    """Boundary minimum of quad over the inner ellipsoid, root found by brentq."""
    basis = np.linalg.inv(np.linalg.cholesky(inner.shape).T)
    mat = basis.T @ quad.shape @ basis
    g = basis.T @ quad.shape @ (inner.center - quad.center)
    eigval, eigvec = np.linalg.eigh(mat)
    gt = eigvec.T @ g

    def radius_excess(mu):
        w = gt / (eigval + mu)
        return float(w @ w) - 1.0

    lo = max(0.0, -eigval.min()) + 1e-14
    hi = max(lo * 2, 1.0)
    while radius_excess(hi) > 0:
        hi *= 2.0
    mu = brentq(radius_excess, lo, hi, xtol=1e-14)
    w = eigvec @ (-gt / (eigval + mu))
    return float(w @ mat @ w + 2.0 * g @ w + quad.quadratic(inner.center))


def test_overlap_minimum_matches_brentq_root():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        shapes = []
        for _ in range(2):
            root = rng.standard_normal((n, n))
            shapes.append(root @ root.T + 0.1 * np.eye(n))
        inner = Ellipsoid(rng.standard_normal(n), shapes[0])
        quad = Ellipsoid(inner.center + rng.uniform(0.5, 4.0) * rng.standard_normal(n), shapes[1])
        basis = np.linalg.inv(np.linalg.cholesky(inner.shape).T)
        w_free = np.linalg.solve(
            basis.T @ quad.shape @ basis, -basis.T @ quad.shape @ (inner.center - quad.center)
        )
        if w_free @ w_free <= 1.0:
            continue  # interior minimum: no root to find
        checked += 1
        expected = _brentq_min_quadratic(inner, quad)
        assert _min_quadratic_over_ellipsoid(inner, quad) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert checked >= 20


def test_evaluate_segments_matches_individual_flows():
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(9)
    states = instance.init.center + 0.2 * rng.standard_normal((3, 3))
    times = np.array([1.0, 2.0, 1.5])
    vec = ShootingVector(states, times)
    flows = evaluate_segments(instance, vec, TIGHT)
    assert flows.end_state.shape == (3, 3)
    assert flows.sensitivity.shape == (3, 3, 3)
    assert flows.end_derivative.shape == (3, 3)
    for i, (state, length) in enumerate(zip(vec.states, vec.times)):
        single = flow_with_sensitivity(instance.system, state, length, TIGHT)
        np.testing.assert_array_equal(flows.end_state[i], single.end_state)
        np.testing.assert_array_equal(flows.sensitivity[i], single.sensitivity)


def test_evaluate_segments_reports_lowest_of_several_failures():
    instance = ProblemInstance(
        blowup_system(), Ellipsoid.ball(np.zeros(1), 0.25), Ellipsoid.ball(np.ones(1), 0.25), 4
    )
    # segments 2 and 3 blow up (at t = 0.5 and t = 0.2); 1 and 4 do not
    vec = ShootingVector(np.array([[0.1], [2.0], [5.0], [0.1]]), np.array([1.0, 3.0, 3.0, 1.0]))
    with pytest.raises(IntegrationFailure, match="segment 2") as info:
        evaluate_segments(instance, vec)
    assert info.value.lane == 1
    with pytest.raises(IntegrationFailure) as single:
        flow_with_sensitivity(instance.system, np.array([2.0]), 3.0)
    assert str(info.value) == f"segment 2: {single.value}"


def test_evaluate_many_equals_evaluate_segments():
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(4)
    vecs = [
        ShootingVector(instance.init.center + 0.2 * rng.standard_normal((3, 3)), rng.uniform(0.5, 2.0, 3))
        for _ in range(4)
    ]
    outcomes = evaluate_many(instance, vecs, TIGHT)
    singles = [evaluate_segments(instance, vec, TIGHT) for vec in vecs]
    # also warm-started, with one first step per segment for every vector
    first_step = np.array([0.05, 0.0, 0.4])
    outcomes += evaluate_many(instance, vecs, TIGHT, first_step=first_step)
    singles += [evaluate_many(instance, [vec], TIGHT, first_step=first_step)[0] for vec in vecs]
    for batched, single in zip(outcomes, singles):
        np.testing.assert_array_equal(batched.end_state, single.end_state)
        np.testing.assert_array_equal(batched.sensitivity, single.sensitivity)
        np.testing.assert_array_equal(batched.end_derivative, single.end_derivative)
        np.testing.assert_array_equal(batched.step, single.step)


def test_evaluate_many_fails_one_vector_and_keeps_the_others():
    """A vector whose segment fails gets its IntegrationFailure as its
    outcome; every other vector of the batch still gets the bits of its own
    evaluate_segments call."""
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(11)
    vecs = [
        ShootingVector(instance.init.center + 0.2 * rng.standard_normal((3, 3)), rng.uniform(0.5, 2.0, 3))
        for _ in range(3)
    ]
    # the longest segment runs out of steps; the others finish
    vecs[1].times[2] = 100.0
    cfg = IntegratorConfig(max_steps=200)
    outcomes = evaluate_many(instance, vecs, cfg)
    failure = outcomes[1]
    assert isinstance(failure, IntegrationFailure)
    assert failure.lane == 5
    with pytest.raises(IntegrationFailure, match="step budget") as single:
        evaluate_segments(instance, vecs[1], cfg)
    assert str(single.value).startswith("segment 3: ")
    assert str(failure) == f"vector 2, {single.value}"
    for k in (0, 2):
        alone = evaluate_segments(instance, vecs[k], cfg)
        for field in ("end_state", "sensitivity", "end_derivative"):
            assert getattr(outcomes[k], field).tobytes() == getattr(alone, field).tobytes(), field


def test_evaluate_segments_rejects_mismatched_vector():
    instance = benchmark2_instance(n_segments=3)
    vec = ShootingVector(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        evaluate_segments(instance, vec)
