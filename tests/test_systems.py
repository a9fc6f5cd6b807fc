"""Tests for the benchmark system definitions and their Jacobians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from falsify.bench import make_system
from falsify.systems import OdeSystem, benchmark1, benchmark2, benchmark3, rotation_matrix

from oracles import reference_functions


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


def test_benchmark3_is_linear():
    system = benchmark3(6)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    lhs = system.rhs(0.0, 2.0 * x + 3.0 * y)
    rhs = 2.0 * system.rhs(0.0, x) + 3.0 * system.rhs(0.0, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_dimension_validation():
    with pytest.raises(ValueError):
        OdeSystem(0, lambda t, x: x, lambda t, x: np.eye(1), label="bad")
    with pytest.raises(ValueError):
        benchmark1(3)
    with pytest.raises(ValueError):
        benchmark3(5)


BUILT_IN = [("benchmark1", 2), ("benchmark1", 4), ("benchmark1", 6), ("benchmark2", 3),
            ("benchmark3", 2), ("benchmark3", 4)]


def _composite_stage(system, t, z):
    """[f, J S] at ``z = [x, S]`` from ``rhs``, ``state_jacobian`` and ``np.matmul``."""
    n = system.dim
    x, lanes = z[..., :n], z.shape[:-1]
    jac_s = np.matmul(system.state_jacobian(t, x), z[..., n:].reshape(lanes + (n, n)))
    return np.concatenate([system.rhs(t, x), jac_s.reshape(lanes + (n * n,))], axis=-1)


@pytest.mark.parametrize(
    "lanes", [(), (1,), (2,), (7,), (3, 4)], ids=lambda lanes: "x".join(map(str, lanes)) or "single"
)
@pytest.mark.parametrize("name, n", BUILT_IN)
def test_fused_variational_kernel_equals_the_composite(name, n, lanes):
    """Every built-in system's variational stage, its kernel for benchmark2
    and benchmark3 and the composite for benchmark1, gives the composite's
    bits, signs of zeros included: x_1 = 0 makes the rotation's f_2 = -0.0,
    and S holds exact zeros of both signs (and is S(0) = I on every other
    lane), which meet J's zeros in J S."""
    system = make_system(name, n)
    assert (system.variational is not None) == (name != "benchmark1")
    rng = np.random.default_rng(n + len(lanes))
    t = rng.uniform(-3.0, 3.0, size=lanes)[()]
    x = rng.uniform(-2.0, 2.0, size=lanes + (n,))
    x[..., 0] = 0.0
    sens = rng.standard_normal(lanes + (n, n))
    sens[..., ::2, :] = 0.0
    sens[..., 1::3] = -0.0
    sens.reshape((-1, n, n))[1::2] = np.eye(n)
    z = np.concatenate([x, sens.reshape(lanes + (n * n,))], axis=-1)
    out = np.full(z.shape, np.nan)
    system.variational_stage(t, z, out)
    expected = _composite_stage(system, t, z)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
    assert (expected == 0.0).any()


@st.composite
def built_in_states(draw):
    """A built-in system, a time and a state of shape (), (B,) or (B1, B2),
    and a sensitivity matrix per lane."""
    name, n = draw(st.sampled_from(BUILT_IN))
    batch = draw(st.sampled_from([(), (1,), (7,), (3, 4)]))
    x = draw(hnp.arrays(float, batch + (n,), elements=st.floats(-1e3, 1e3)))
    t = draw(hnp.arrays(float, batch, elements=st.floats(-10.0, 10.0)))
    sens = draw(hnp.arrays(float, batch + (n, n), elements=st.floats(-1e3, 1e3)))
    return name, n, t[()] if not batch else t, x, sens


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(built_in_states())
def test_built_in_functions_equal_the_reference_formulas(case):
    name, n, t, x, sens = case
    system = make_system(name, n)
    ref_rhs, ref_jac = reference_functions(name, n)
    rhs, jac = system.rhs(t, x), system.state_jacobian(t, x)
    assert rhs.shape == x.shape and jac.shape == x.shape + (n,)
    assert jac.flags.c_contiguous
    np.testing.assert_array_equal(rhs, ref_rhs(t, x))
    np.testing.assert_array_equal(jac, ref_jac(t, x))
    # the variational stage, fused or composite, is [rhs, jac @ S] bit for bit
    lanes = x.shape[:-1]
    z = np.concatenate([x, sens.reshape(lanes + (n * n,))], axis=-1)
    out = np.full(z.shape, np.nan)
    system.variational_stage(t, z, out)
    np.testing.assert_array_equal(out[..., :n], rhs)
    np.testing.assert_array_equal(out[..., n:], (jac @ sens).reshape(lanes + (n * n,)))
