"""Tests for the benchmark system definitions and their Jacobians."""

import numpy as np
import pytest

from falsify.systems import OdeSystem, benchmark1, benchmark2, benchmark3, rotation_matrix


def fd_jacobian_of_rhs(system, x, h=1e-6):
    n = system.dim
    jac = np.zeros((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, j] = (system.rhs(0.0, x + step) - system.rhs(0.0, x - step)) / (2.0 * h)
    return jac


def test_rotation_matrix_blocks():
    mat = rotation_matrix(4)
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(mat, expected)
    assert np.all(mat == -mat.T)


def test_rotation_matrix_rejects_odd_or_nonpositive():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            rotation_matrix(bad)


def test_benchmark2_rhs_values():
    system = benchmark2()
    x = np.array([1.0, 2.0, 3.0])
    expected = np.array(
        [
            -2.0 + 1.0 * 3.0,
            1.0 + 2.0 * 3.0,
            -3.0 - 1.0 - 4.0 + 9.0,
        ]
    )
    np.testing.assert_array_equal(system.rhs(0.0, x), expected)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(21)
    for system in (benchmark1(4), benchmark1(6), benchmark2(), benchmark3(4)):
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=system.dim)
            analytic = system.state_jacobian(0.0, x)
            np.testing.assert_allclose(
                analytic, fd_jacobian_of_rhs(system, x), atol=1e-8
            )


def test_benchmark1_reversed_sine_coupling():
    system = benchmark1(4)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    expected = rotation_matrix(4) @ x + np.sin(x[::-1])
    np.testing.assert_allclose(system.rhs(0.0, x), expected, rtol=1e-15)


def test_benchmark3_is_linear():
    system = benchmark3(6)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    lhs = system.rhs(0.0, 2.0 * x + 3.0 * y)
    rhs = 2.0 * system.rhs(0.0, x) + 3.0 * system.rhs(0.0, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_vectorized_rhs_and_jacobian_equal_per_lane_calls():
    rng = np.random.default_rng(17)
    for system in (benchmark1(4), benchmark1(6), benchmark2(), benchmark3(4)):
        assert system.vectorized
        x = rng.uniform(-2.0, 2.0, size=(2, 5, system.dim))
        t = rng.uniform(-1.0, 1.0, size=(2, 5))
        rhs = system.rhs(t, x)
        jac = system.state_jacobian(t, x)
        assert rhs.shape == x.shape
        assert jac.shape == x.shape + (system.dim,)
        for index in np.ndindex(2, 5):
            np.testing.assert_array_equal(rhs[index], system.rhs(t[index], x[index]))
            np.testing.assert_array_equal(jac[index], system.state_jacobian(t[index], x[index]))


def test_user_systems_default_to_per_lane_calls():
    system = OdeSystem(1, lambda t, x: -x, lambda t, x: -np.eye(1), "decay")
    assert not system.vectorized


def test_dimension_validation():
    with pytest.raises(ValueError):
        OdeSystem(0, lambda t, x: x, lambda t, x: np.eye(1), label="bad")
    with pytest.raises(ValueError):
        benchmark1(3)
    with pytest.raises(ValueError):
        benchmark3(5)
