"""Tests for the adaptive Runge-Kutta flow map and its variational extension."""

import numpy as np
import pytest

from falsify.integrate import (
    DEFAULT_CONFIG,
    IntegrationFailure,
    IntegratorConfig,
    flow,
    flow_with_sensitivity,
)
from falsify.systems import OdeSystem, benchmark1, benchmark2, benchmark3

from oracles import TIGHT, rotation_flow_matrix, scipy_flow, serial_flow

# End state of benchmark2 from [1, 1, 1] after 5 time units, frozen from an
# independent high-accuracy run (scipy DOP853 at rtol=atol=1e-13).
BENCH2_AT_5 = np.array(
    [0.27157540705798439, -0.14758295107017394, -0.11619809605658242]
)


def test_frozen_benchmark2_value():
    end = flow(benchmark2(), np.ones(3), 5.0, TIGHT)
    np.testing.assert_allclose(end, BENCH2_AT_5, rtol=0.0, atol=5e-11)


def test_zero_duration_is_identity():
    x0 = np.array([0.3, -1.2, 0.8])
    np.testing.assert_array_equal(flow(benchmark2(), x0, 0.0), x0)


def test_rotation_closed_form_forward_and_backward():
    system = benchmark3(6)
    rng = np.random.default_rng(7)
    for duration in (-5.0, -1.3, 0.4, 2.0, 5.0):
        x0 = rng.standard_normal(6)
        expected = rotation_flow_matrix(6, duration) @ x0
        np.testing.assert_allclose(flow(system, x0, duration), expected, atol=1e-8)


def test_sensitivity_matches_rotation_matrix():
    system = benchmark3(4)
    x0 = np.array([1.0, -0.5, 0.25, 2.0])
    for duration in (-3.0, 1.7, 5.0):
        result = flow_with_sensitivity(system, x0, duration)
        np.testing.assert_allclose(
            result.sensitivity, rotation_flow_matrix(4, duration), atol=1e-8
        )
        np.testing.assert_allclose(
            result.end_state, rotation_flow_matrix(4, duration) @ x0, atol=1e-8
        )


def test_end_derivative_is_rhs_at_end_state():
    system = benchmark2()
    result = flow_with_sensitivity(system, np.array([1.0, 1.0, 1.0]), 2.5)
    np.testing.assert_array_equal(
        result.end_derivative, system.rhs(2.5, result.end_state)
    )


def test_sensitivity_against_finite_differences():
    system = benchmark2()
    x0 = np.array([0.9, 1.1, 0.7])
    duration = 1.8
    result = flow_with_sensitivity(system, x0, duration, TIGHT)
    h = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        column = (
            flow(system, x0 + step, duration, TIGHT)
            - flow(system, x0 - step, duration, TIGHT)
        ) / (2.0 * h)
        np.testing.assert_allclose(result.sensitivity[:, j], column, atol=1e-7)


def test_semigroup_property():
    system = benchmark2()
    x0 = np.array([1.0, 1.0, 1.0])
    direct = flow(system, x0, 3.0, TIGHT)
    via_midpoint = flow(system, flow(system, x0, 1.25, TIGHT), 1.75, TIGHT)
    np.testing.assert_allclose(via_midpoint, direct, atol=1e-9)


def test_backward_flow_inverts_forward():
    system = benchmark1(4)
    x0 = np.array([0.5, -0.25, 1.0, 0.75])
    there = flow(system, x0, 2.0, TIGHT)
    back = flow(system, there, -2.0, TIGHT)
    np.testing.assert_allclose(back, x0, atol=1e-9)


def test_agrees_with_scipy_reference():
    rng = np.random.default_rng(11)
    for system in (benchmark2(), benchmark1(4)):
        x0 = rng.uniform(-1.0, 1.0, size=system.dim)
        ours = flow(system, x0, 4.0, TIGHT)
        reference = scipy_flow(system, x0, 4.0)
        np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-10)


def test_chain_rule_for_composed_sensitivities():
    system = benchmark2()
    x0 = np.array([1.0, 0.5, -0.25])
    first = flow_with_sensitivity(system, x0, 1.0, TIGHT)
    second = flow_with_sensitivity(system, first.end_state, 1.5, TIGHT)
    composed = flow_with_sensitivity(system, x0, 2.5, TIGHT)
    np.testing.assert_allclose(
        second.sensitivity @ first.sensitivity, composed.sensitivity, atol=1e-8
    )


def _mixed_batch(system, lanes, seed):
    """Start states near the unit vector and durations of both signs and zero."""
    rng = np.random.default_rng(seed)
    x0 = 1.0 + 0.4 * rng.standard_normal((lanes, system.dim))
    durations = rng.uniform(-2.5, 2.5, size=lanes)
    durations[::4] = 0.0
    return x0, durations


@pytest.mark.parametrize("lanes", [5, 40])
def test_batch_lanes_equal_single_calls(lanes):
    for system in (benchmark1(4), benchmark2(), benchmark3(6)):
        x0, durations = _mixed_batch(system, lanes, seed=lanes)
        ends = flow(system, x0, durations)
        batch = flow_with_sensitivity(system, x0, durations)
        assert ends.shape == x0.shape
        assert batch.sensitivity.shape == (lanes, system.dim, system.dim)
        for i in range(lanes):
            np.testing.assert_array_equal(ends[i], flow(system, x0[i], durations[i]))
            single = flow_with_sensitivity(system, x0[i], durations[i])
            np.testing.assert_array_equal(batch.end_state[i], single.end_state)
            np.testing.assert_array_equal(batch.sensitivity[i], single.sensitivity)
            np.testing.assert_array_equal(batch.end_derivative[i], single.end_derivative)


def test_zero_duration_lanes_are_identity():
    system = benchmark2()
    x0, durations = _mixed_batch(system, 8, seed=3)
    batch = flow_with_sensitivity(system, x0, durations)
    for i in np.flatnonzero(durations == 0.0):
        np.testing.assert_array_equal(batch.end_state[i], x0[i])
        np.testing.assert_array_equal(batch.sensitivity[i], np.eye(3))


def test_lanes_agree_with_serial_reference():
    for system in (benchmark1(4), benchmark2(), benchmark3(4)):
        x0, durations = _mixed_batch(system, 12, seed=5)
        ends = flow(system, x0, durations)
        batch = flow_with_sensitivity(system, x0, durations)
        for i in range(len(x0)):
            np.testing.assert_allclose(
                ends[i], serial_flow(system, x0[i], durations[i]), rtol=0.0, atol=1e-13
            )
            end, sens = serial_flow(system, x0[i], durations[i], sensitivity=True)
            np.testing.assert_allclose(batch.end_state[i], end, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(batch.sensitivity[i], sens, rtol=0.0, atol=1e-13)


def _kink_system():
    """dx/dt = r(t) x with r jumping from 1 to -30 at t = 0.5: steps across
    the jump are rejected, so lanes that cross it reject while others accept."""

    def rate(t):
        return np.where(np.asarray(t) < 0.5, 1.0, -30.0)

    return OdeSystem(
        2,
        lambda t, x: rate(t)[..., None] * x,
        lambda t, x: rate(t)[..., None, None] * np.eye(x.shape[-1]),
        "kink",
        vectorized=True,
    )


def test_lanes_that_reject_steps_match_single_and_serial_runs():
    system = _kink_system()
    x0 = np.array([[1.0, -1.0], [0.5, 2.0], [1.0, 1.0], [-0.3, 0.8], [2.0, 0.1], [1.0, 0.0]])
    durations = np.array([0.3, 1.0, 0.4, 2.0, -0.7, 1.5])
    batch = flow_with_sensitivity(system, x0, durations)
    for i in range(len(x0)):
        single = flow_with_sensitivity(system, x0[i], durations[i])
        np.testing.assert_array_equal(batch.end_state[i], single.end_state)
        np.testing.assert_array_equal(batch.sensitivity[i], single.sensitivity)
        end, sens = serial_flow(system, x0[i], durations[i], sensitivity=True)
        np.testing.assert_allclose(batch.end_state[i], end, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(batch.sensitivity[i], sens, rtol=0.0, atol=1e-13)


def test_scalar_duration_broadcasts_over_lanes():
    system = benchmark3(4)
    x0 = np.eye(4)
    np.testing.assert_array_equal(
        flow(system, x0, 1.5), flow(system, x0, np.full(4, 1.5))
    )


def test_non_vectorized_system_is_called_per_lane():
    reference = benchmark2()
    shapes = []

    def rhs(t, x):
        shapes.append((np.shape(t), x.shape))
        return reference.rhs(t, x)

    system = OdeSystem(3, rhs, reference.state_jacobian, "per-lane benchmark2")
    assert not system.vectorized
    x0, durations = _mixed_batch(system, 6, seed=11)
    batch = flow_with_sensitivity(system, x0, durations)
    assert set(shapes) == {((), (3,))}
    for i in range(len(x0)):
        single = flow_with_sensitivity(reference, x0[i], durations[i])
        np.testing.assert_array_equal(batch.end_state[i], single.end_state)
        np.testing.assert_array_equal(batch.sensitivity[i], single.sensitivity)


def test_batch_shape_validation():
    system = benchmark2()
    with pytest.raises(ValueError):
        flow(system, np.ones((4, 2)), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.ones((4, 3)), np.ones(3))
    with pytest.raises(ValueError):
        flow(system, np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        flow_with_sensitivity(system, np.ones((2, 3)), np.array([1.0, np.nan]))


def _blowup_system():
    return OdeSystem(
        1,
        lambda t, x: x * x,
        lambda t, x: np.array([[2.0 * x[0]]]),
        label="quadratic blowup",
    )


def test_finite_time_blowup_raises():
    with pytest.raises(IntegrationFailure):
        flow(_blowup_system(), np.array([1.0]), 2.0)


def test_step_budget_exhaustion_raises():
    tiny = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, max_steps=3)
    with pytest.raises(IntegrationFailure, match="step"):
        flow(benchmark2(), np.ones(3), 5.0, tiny)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


def test_bad_initial_state_rejected():
    system = benchmark2()
    with pytest.raises(ValueError):
        flow(system, np.ones(4), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.array([1.0, np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        flow(system, np.ones(3), np.inf)


def test_default_config_tolerances():
    assert DEFAULT_CONFIG.rel_tol == 1e-9
    assert DEFAULT_CONFIG.abs_tol == 1e-9
    assert DEFAULT_CONFIG.max_steps == 100000
