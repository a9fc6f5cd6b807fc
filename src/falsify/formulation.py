"""Objectives, regularizers, constraints and their analytic first derivatives.

Nine named problem formulations (eq5 ... eq13) combine an objective over the
shooting vector, an optional regularizer over the segment durations, and an
equality constraint set:

    objectives    zero | endpoint_distance | matching_gap | combined
    regularizers  none | total_squared | successive_difference | mean_deviation
    constraints   none | matching | matching_boundary | boundary

``endpoint_distance`` penalizes the squared ellipsoid-norm distances of the
first start state and the final end state to the set centers;
``matching_gap`` penalizes the squared gaps between consecutive segments.
``matching`` constrains consecutive segments to join continuously,
``boundary`` pins the first/last states to the two ellipsoid boundaries, and
``matching_boundary`` does both.

The Lagrange multipliers are one float per column of the constraint
Jacobian B, in its column order:

    matching           [lam_1 .. lam_{N-1}]         (one n-vector per joint)
    matching_boundary  [lam_init, lam_1 .. lam_{N-1}, lam_unsafe]
    boundary           [lam_init, lam_unsafe]
    none               []

The Lagrangian gradient has one path, ``objective_gradient + B @ lambda``
(:func:`lagrangian_gradient`).  ``falsify check`` verifies it by central
differences, and the per-formulation closed forms that read the layout
above are a test oracle (``tests/oracles.py``).
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Formulation",
    "FORMULATION_NAMES",
    "constraint_dim",
    "objective_value",
    "objective_gradient",
    "constraint_value",
    "constraint_jacobian",
    "lagrangian_gradient",
]

OBJECTIVES = ("zero", "endpoint_distance", "matching_gap", "combined")
REGULARIZERS = ("none", "total_squared", "successive_difference", "mean_deviation")
CONSTRAINTS = ("none", "matching", "matching_boundary", "boundary")


@dataclass(frozen=True)
class Formulation:
    """One choice of objective + regularizer + constraint set; any
    combination outside the nine named ones is ``"experimental"``."""

    objective: str = "zero"
    regularizer: str = "none"
    constraints: str = "none"
    name: str = "experimental"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.constraints not in CONSTRAINTS:
            raise ValueError(f"unknown constraint set {self.constraints!r}")

    @classmethod
    def by_name(cls, name):
        """One of the nine named formulations eq5 ... eq13."""
        try:
            combo = _NAMED[name]
        except KeyError:
            raise ValueError(
                f"unknown formulation {name!r}; choose from {sorted(_NAMED)}"
            ) from None
        return cls(*combo, name=name)


_NAMED = {
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

FORMULATION_NAMES = tuple(_NAMED)


def constraint_dim(kind, n, n_segments):
    if kind == "matching":
        return n * (n_segments - 1)
    if kind == "matching_boundary":
        return n * (n_segments - 1) + 2
    if kind == "boundary":
        return 2
    return 0


# ---------------------------------------------------------------------------
# ``flows`` is the batched FlowResult of :func:`falsify.shooting.evaluate_segments`:
# end_state (N, n), sensitivity (N, n, n), end_derivative (N, n).


def _gaps(vec, flows):
    """Matching residuals x0_{i+1} - end_state_i, shape (N-1, n)."""
    return vec.states[1:] - flows.end_state[:-1]


# ---------------------------------------------------------------------------
# objective


def objective_value(form, instance, vec, flows):
    """F(X) + R(X) for the active formulation."""
    total = 0.0
    if form.objective in ("endpoint_distance", "combined"):
        total += 0.5 * (
            instance.init.quadratic(vec.states[0])
            + instance.unsafe_set.quadratic(flows.end_state[-1])
        )
    if form.objective in ("matching_gap", "combined"):
        gaps = _gaps(vec, flows)
        total += 0.5 * float(np.sum(gaps * gaps))
    total += _regularizer_value(form.regularizer, vec.times)
    return total


def _regularizer_value(reg, times):
    if reg == "total_squared":
        return 0.5 * float(times @ times)
    if reg == "successive_difference":
        return 0.5 * float(np.sum(np.diff(times) ** 2))
    if reg == "mean_deviation":
        dev = times - times.mean()
        return 0.5 * float(dev @ dev)
    return 0.0


def _regularizer_gradient(reg, times):
    if reg == "total_squared":
        return times.copy()
    if reg == "successive_difference":
        grad = np.zeros_like(times)
        diff = np.diff(times)
        grad[:-1] -= diff
        grad[1:] += diff
        return grad
    if reg == "mean_deviation":
        return times - times.mean()
    return np.zeros_like(times)


def objective_gradient(form, instance, vec, flows):
    """Gradient of :func:`objective_value` in the packed layout."""
    n = vec.dim
    grad = np.zeros((vec.n_segments, n + 1))  # row i: [d/dx0_i, d/dt_i]
    x_grad, t_grad = grad[:, :n], grad[:, n]
    if form.objective in ("endpoint_distance", "combined"):
        x_grad[0] += instance.init.shape @ (vec.states[0] - instance.init.center)
        w = instance.unsafe_set.shape @ (
            flows.end_state[-1] - instance.unsafe_set.center
        )
        x_grad[-1] += flows.sensitivity[-1].T @ w
        t_grad[-1] += float(flows.end_derivative[-1] @ w)
    if form.objective in ("matching_gap", "combined"):
        gaps = _gaps(vec, flows)
        x_grad[1:] += gaps
        x_grad[:-1] -= (gaps[:, None, :] @ flows.sensitivity[:-1])[:, 0]
        t_grad[:-1] -= (flows.end_derivative[:-1, None, :] @ gaps[:, :, None])[:, 0, 0]
    t_grad += _regularizer_gradient(form.regularizer, vec.times)
    return grad.ravel()


# ---------------------------------------------------------------------------
# constraints


def constraint_value(kind, instance, vec, flows):
    """Active constraint vector, one row per column of B (module docstring)."""
    parts = []
    if kind in ("matching_boundary", "boundary"):
        parts.append([0.5 * (instance.init.quadratic(vec.states[0]) - 1.0)])
    if kind in ("matching", "matching_boundary"):
        parts.append(_gaps(vec, flows).ravel())
    if kind in ("matching_boundary", "boundary"):
        parts.append(
            [0.5 * (instance.unsafe_set.quadratic(flows.end_state[-1]) - 1.0)]
        )
    if not parts:
        return np.zeros(0)
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


@functools.lru_cache(maxsize=64)
def _jacobian_candidates(kind, n, n_segments):
    """Row index and column of every candidate entry of B, column after
    column (init column, joints, unsafe column), each column's rows in
    increasing order, as two read-only arrays."""
    rows, sizes = [np.zeros(0, dtype=int)], []
    if kind in ("matching_boundary", "boundary"):
        rows.append(np.arange(n))
        sizes.append(n)
    if kind in ("matching", "matching_boundary"):
        # joint i, component c: segment i's x rows and t row, then row c of
        # segment i+1's x rows
        start = np.arange(n_segments - 1)[:, None] * (n + 1)
        joint_rows = np.empty((n_segments - 1, n, n + 2), dtype=int)
        joint_rows[:, :, : n + 1] = (start + np.arange(n + 1))[:, None, :]
        joint_rows[:, :, n + 1] = start + n + 1 + np.arange(n)
        rows.append(joint_rows.ravel())
        sizes += [n + 2] * ((n_segments - 1) * n)
    if kind in ("matching_boundary", "boundary"):
        rows.append((n_segments - 1) * (n + 1) + np.arange(n + 1))
        sizes.append(n + 1)
    # the index dtype scipy.sparse picks for B, so that it takes them as they are
    rows = np.concatenate(rows).astype(np.int32)
    cols = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def constraint_jacobian(kind, instance, vec, flows):
    """Sparse (m1, m2) B with B[:, j] = gradient of constraint j, packed layout rows.

    Built in CSC format column by column (init column, joints, unsafe
    column), each column's rows in increasing order; entries that come out
    exactly zero are not stored.  The candidate rows depend on (kind, n, N)
    alone and are computed once for each.  Kind ``"none"`` gives an empty
    (m1, 0) matrix, which the SQP and KKT layers treat like any other B.
    """
    n, big_n = vec.dim, vec.n_segments
    m1 = big_n * (n + 1)
    m2 = constraint_dim(kind, n, big_n)
    rows, cols = _jacobian_candidates(kind, n, big_n)
    # candidate values, in the order of the rows
    vals = [np.zeros(0)]
    if kind in ("matching_boundary", "boundary"):
        vals.append(instance.init.shape @ (vec.states[0] - instance.init.center))
    if kind in ("matching", "matching_boundary"):
        # joint i, component c: -S_i[c, :], -f_i[c], then 1
        joint_vals = np.empty((big_n - 1, n, n + 2))
        joint_vals[:, :, :n] = -flows.sensitivity[:-1]
        joint_vals[:, :, n] = -flows.end_derivative[:-1]
        joint_vals[:, :, n + 1] = 1.0
        vals.append(joint_vals.ravel())
    if kind in ("matching_boundary", "boundary"):
        w = instance.unsafe_set.shape @ (
            flows.end_state[-1] - instance.unsafe_set.center
        )
        vals.append(np.append(flows.sensitivity[-1].T @ w, flows.end_derivative[-1] @ w))
    vals = np.concatenate(vals)
    stored = np.flatnonzero(vals)
    indptr = np.zeros(m2 + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[stored], minlength=m2), out=indptr[1:])
    return sp.csc_matrix((vals[stored], rows[stored], indptr), shape=(m1, m2))


# ---------------------------------------------------------------------------
# Lagrangian gradient


def lagrangian_gradient(grad_f, jac, lam):
    """objective gradient + B lambda, from the objective gradient ``grad_f``
    and the constraint Jacobian ``jac`` at one point; ``lam`` holds one
    multiplier per column of ``jac``."""
    return grad_f + jac @ lam

