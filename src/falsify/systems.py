"""ODE system definitions: right-hand side, state Jacobian, benchmarks.

The state Jacobian df/dx is carried explicitly because it is the coefficient
matrix of the variational equations; all built-in constructors supply the
analytic form.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OdeSystem", "benchmark1", "benchmark2", "benchmark3", "rotation_matrix"]


@dataclass(frozen=True)
class OdeSystem:
    """Dynamics dx/dt = f(t, x) together with its state Jacobian.

    ``rhs`` and ``state_jacobian`` must be defined for all finite t
    (including t < 0) and all finite states.  When ``vectorized`` is set
    they also accept a batch: times of shape (...) and states of shape
    (..., n), giving (..., n) and (..., n, n), each lane computed exactly as
    a single call would.  Other systems are called once per lane.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    state_jacobian: Callable[[float, np.ndarray], np.ndarray]
    label: str
    vectorized: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("state dimension must be positive")


def rotation_matrix(n):
    """Block-diagonal matrix of 2x2 rotation generators [[0, 1], [-1, 0]]."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"dimension must be even and positive, got {n}")
    mat = np.zeros((n, n))
    for i in range(0, n, 2):
        mat[i, i + 1] = 1.0
        mat[i + 1, i] = -1.0
    return mat


def _rotate(x):
    """rotation_matrix(n) @ x over the last axis, by moving entries only."""
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 1::2]
    out[..., 1::2] = -x[..., 0::2]
    return out


def _rotation_jacobian(a_mat, x):
    """A copy of ``a_mat`` per lane of ``x``."""
    return np.broadcast_to(a_mat, x.shape[:-1] + a_mat.shape).copy()


def benchmark1(n):
    """Block rotation driven by a reversed-argument sine coupling.

    dx/dt = A x + sin(x reversed), with A the block rotation generator; the
    sine acts componentwise on the state read back-to-front, so the Jacobian
    is A plus cos terms on the anti-diagonal.
    """
    a_mat = rotation_matrix(n)
    idx = np.arange(n)

    def rhs(t, x):
        return _rotate(x) + np.sin(x[..., ::-1])

    def jac(t, x):
        out = _rotation_jacobian(a_mat, x)
        out[..., idx, n - 1 - idx] += np.cos(x[..., n - 1 - idx])
        return out

    return OdeSystem(n, rhs, jac, f"benchmark1(n={n})", vectorized=True)


def benchmark2():
    """Three-state polynomial system with a spiral/unstable interplay.

    dx1/dt = -x2 + x1 x3
    dx2/dt =  x1 + x2 x3
    dx3/dt = -x3 - x1^2 - x2^2 + x3^2
    """

    # x.T puts the component axis first (single states unpack to scalars);
    # the final .T puts the lane axes back in front.

    def rhs(t, x):
        x1, x2, x3 = x.T
        return np.array(
            [
                -x2 + x1 * x3,
                x1 + x2 * x3,
                -x3 - x1 * x1 - x2 * x2 + x3 * x3,
            ]
        ).T

    def jac(t, x):
        x1, x2, x3 = x.T
        one = x3 ** 0  # 1.0 in the shape of a component, cheap for scalars
        # listed column by column, so that the final .T yields the rows
        return np.array(
            [
                [x3, one, -2.0 * x1],
                [-one, x3, -2.0 * x2],
                [x1, x2, -1.0 + 2.0 * x3],
            ]
        ).T

    return OdeSystem(3, rhs, jac, "benchmark2", vectorized=True)


def benchmark3(n):
    """Pure block rotation dx/dt = A x (linear, norm-preserving per 2-block)."""
    a_mat = rotation_matrix(n)

    def rhs(t, x):
        return _rotate(x)

    def jac(t, x):
        return _rotation_jacobian(a_mat, x)

    return OdeSystem(n, rhs, jac, f"benchmark3(n={n})", vectorized=True)
