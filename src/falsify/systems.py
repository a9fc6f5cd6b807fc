"""ODE system definitions: right-hand side, state Jacobian, benchmarks.

The state Jacobian df/dx is carried explicitly because it is the coefficient
matrix of the variational equations; all built-in constructors supply the
analytic form.  benchmark2 and benchmark3 also supply a fused variational
kernel, faster than their composite stage; benchmark1 has none, since its
kernel would only call its rhs and Jacobian in turn.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["OdeSystem", "benchmark1", "benchmark2", "benchmark3", "rotation_matrix"]


@dataclass(frozen=True)
class OdeSystem:
    """Dynamics dx/dt = f(t, x) together with its state Jacobian.

    ``rhs`` and ``state_jacobian`` must be defined for all finite t
    (including t < 0) and all finite states, and must accept a batch: times
    of shape (...) and states of shape (..., n), giving float arrays of
    shape (..., n) and (..., n, n), each lane computed exactly as a single
    call would.  The integrator calls them on batches of lanes, one lane
    included, and on single states (a time scalar and a state (n,)) only
    for a lane that runs alone; a batch result of another shape raises
    ``ValueError``.  It hands the Jacobians to ``np.matmul`` as they are,
    so they should be C-contiguous: numpy may round a product with a
    strided operand differently, and a batched lane would then no longer be
    bitwise equal to a single call.

    ``variational(t, z, out)``, when given, is one stage of the variational
    equations dx/dt = f, dS/dt = J S in a single call: ``z`` is
    ``[x, S in row-major order]`` of length n + n**2, with the lane shape of
    ``t`` in front, and the call writes f(t, x) into ``out[..., :n]`` and
    J(t, x) S, taken as (..., n, n), into ``out[..., n:]``; its return value
    is ignored.  It is called on the shapes ``rhs`` is, and must give the
    bits of :meth:`variational_stage`'s composite of ``rhs`` and
    ``state_jacobian``, whose J goes to ``np.matmul`` C-contiguous.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    state_jacobian: Callable[[float, np.ndarray], np.ndarray]
    label: str
    variational: Optional[Callable[[float, np.ndarray, np.ndarray], None]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("state dimension must be positive")

    def checked(self, value, shape):
        """``value``, returned by ``rhs`` or ``state_jacobian`` on a batch,
        once it has the batch's ``shape``: a function written for one state
        would give one lane's value for the whole batch."""
        if np.shape(value) != shape:
            raise ValueError(
                f"system '{self.label}' returned shape {np.shape(value)} on a batch, "
                f"expected {shape}"
            )
        return value

    def variational_stage(self, t, z, out):
        """f and J S at ``z = [x, S]`` written into ``out``: the system's own
        ``variational`` when it has one, else ``rhs`` and ``state_jacobian``."""
        if self.variational is not None:
            self.variational(t, z, out)
            return
        x = z[..., : self.dim]
        f, jac = self.rhs(t, x), self.state_jacobian(t, x)
        if x.ndim > 1:
            f, jac = self.checked(f, x.shape), self.checked(jac, x.shape + (self.dim,))
        out[..., : self.dim] = f
        _jac_times_sensitivity(jac, z, out)


def _jac_times_sensitivity(jac, z, out):
    """J S written into ``out[..., n:]``, with S = ``z[..., n:]`` taken as
    (..., n, n) and J of that shape (or (n, n), broadcast over the lanes).
    ``out``'s last axis is contiguous, so the reshape is a view into it."""
    n = jac.shape[-1]
    shape = z.shape[:-1] + (n, n)
    np.matmul(jac, z[..., n:].reshape(shape), out=out[..., n:].reshape(shape))


def rotation_matrix(n):
    """Block-diagonal matrix of 2x2 rotation generators [[0, 1], [-1, 0]]."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"dimension must be even and positive, got {n}")
    mat = np.zeros((n, n))
    for i in range(0, n, 2):
        mat[i, i + 1] = 1.0
        mat[i + 1, i] = -1.0
    return mat


def _rotate(x, out=None):
    """rotation_matrix(n) @ x over the last axis, by moving entries only,
    written into ``out`` when given."""
    if out is None:
        out = np.empty_like(x)
    out[..., 0::2] = x[..., 1::2]
    np.negative(x[..., 0::2], out=out[..., 1::2])
    return out


def _rotation_jacobian(a_mat, x):
    """A copy of ``a_mat`` per lane of ``x``."""
    out = np.empty(x.shape[:-1] + a_mat.shape)
    out[...] = a_mat
    return out


def benchmark1(n):
    """Block rotation driven by a reversed-argument sine coupling.

    dx/dt = A x + sin(x reversed), with A the block rotation generator; the
    sine acts componentwise on the state read back-to-front, so the Jacobian
    is A plus cos terms on the anti-diagonal.
    """
    a_mat = rotation_matrix(n)
    # entries (i, n-1-i) of a flattened n x n matrix, i = 0 .. n-1
    anti_diagonal = slice(n - 1, n * n - 1, n - 1)

    def rhs(t, x):
        return _rotate(x) + np.sin(x[..., ::-1])

    def jac(t, x):
        out = _rotation_jacobian(a_mat, x)
        out.reshape(x.shape[:-1] + (n * n,))[..., anti_diagonal] += np.cos(x[..., ::-1])
        return out

    return OdeSystem(n, rhs, jac, f"benchmark1(n={n})")


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
        # the nine entries row by row; .T puts the lane axes back in front,
        # in C order for batches (a single state is already contiguous)
        entries = np.array(
            [x3, -one, x1, one, x3, x2, -2.0 * x1, -2.0 * x2, -1.0 + 2.0 * x3]
        )
        return np.ascontiguousarray(entries.T).reshape(x.shape + (3,))

    def variational(t, z, out):
        # rhs and jac fused, with their operations in their order.  Through
        # the transposes the component axis comes first, so a single state's
        # components are scalars, and jac_t[j, i] is the entry (i, j) of jac.
        z_t, f = z.T, out.T
        x1, x2, x3 = z_t[0], z_t[1], z_t[2]
        f[0] = -x2 + x1 * x3
        f[1] = x1 + x2 * x3
        f[2] = -x3 - x1 * x1 - x2 * x2 + x3 * x3
        jac = np.empty(z.shape[:-1] + (3, 3))
        jac_t = jac.T
        jac_t[0, 0], jac_t[1, 0], jac_t[2, 0] = x3, -1.0, x1
        jac_t[0, 1], jac_t[1, 1], jac_t[2, 1] = 1.0, x3, x2
        jac_t[0, 2], jac_t[1, 2], jac_t[2, 2] = -2.0 * x1, -2.0 * x2, -1.0 + 2.0 * x3
        _jac_times_sensitivity(jac, z, out)

    return OdeSystem(3, rhs, jac, "benchmark2", variational=variational)


def benchmark3(n):
    """Pure block rotation dx/dt = A x (linear, norm-preserving per 2-block)."""
    a_mat = rotation_matrix(n)

    def rhs(t, x):
        return _rotate(x)

    def jac(t, x):
        return _rotation_jacobian(a_mat, x)

    def variational(t, z, out):
        # the constant A broadcast over the lanes gives the bits of jac's copies
        _rotate(z[..., :n], out[..., :n])
        _jac_times_sensitivity(a_mat, z, out)

    return OdeSystem(n, rhs, jac, f"benchmark3(n={n})", variational=variational)
