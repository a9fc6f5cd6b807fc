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

Two independent code paths produce the Lagrangian gradient: the generic
``objective_gradient + B @ lambda`` (authoritative) and per-formulation
closed forms (:func:`lagrangian_gradient_direct`, used as an oracle and for
degeneracy diagnostics).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Formulation",
    "FORMULATION_NAMES",
    "Multipliers",
    "constraint_dim",
    "objective_value",
    "objective_gradient",
    "constraint_value",
    "constraint_jacobian",
    "lagrangian_gradient",
    "lagrangian_gradient_direct",
]

OBJECTIVES = ("zero", "endpoint_distance", "matching_gap", "combined")
REGULARIZERS = ("none", "total_squared", "successive_difference", "mean_deviation")
CONSTRAINTS = ("none", "matching", "matching_boundary", "boundary")


@dataclass(frozen=True)
class Formulation:
    """One choice of objective + regularizer + constraint set."""

    objective: str
    regularizer: str
    constraints: str
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

    @classmethod
    def experimental(cls, objective, regularizer="none", constraints="none"):
        """Any combination, outside the nine named ones."""
        return cls(objective, regularizer, constraints)


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


@dataclass(frozen=True)
class Multipliers:
    """Lagrange multipliers in the column order of the constraint Jacobian.

    matching           -> [lam_1 .. lam_{N-1}]         (one n-vector per joint)
    matching_boundary  -> [lam_init, lam_1 .. lam_{N-1}, lam_unsafe]
    boundary           -> [lam_init, lam_unsafe]
    none               -> []
    """

    kind: str
    flat: np.ndarray
    n: int
    n_segments: int

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=float)
        object.__setattr__(self, "flat", flat)
        expected = constraint_dim(self.kind, self.n, self.n_segments)
        if flat.shape != (expected,):
            raise ValueError(
                f"multiplier vector for {self.kind!r} must have length {expected}"
            )

    @classmethod
    def zeros(cls, kind, n, n_segments):
        return cls(kind, np.zeros(constraint_dim(kind, n, n_segments)), n, n_segments)

    def replace(self, flat):
        return Multipliers(self.kind, flat, self.n, self.n_segments)

    @property
    def matching(self):
        """Joint multipliers as an (N-1, n) array, where present."""
        if self.kind == "matching":
            return self.flat.reshape(self.n_segments - 1, self.n)
        if self.kind == "matching_boundary":
            return self.flat[1:-1].reshape(self.n_segments - 1, self.n)
        raise AttributeError(f"{self.kind!r} constraints carry no joint multipliers")

    @property
    def boundary(self):
        """(lam_init, lam_unsafe) scalars, where present."""
        if self.kind == "boundary":
            return float(self.flat[0]), float(self.flat[1])
        if self.kind == "matching_boundary":
            return float(self.flat[0]), float(self.flat[-1])
        raise AttributeError(f"{self.kind!r} constraints carry no boundary multipliers")


# ---------------------------------------------------------------------------
# layout helpers


def _x_rows(i, n):
    return slice(i * (n + 1), i * (n + 1) + n)


def _t_row(i, n):
    return i * (n + 1) + n


def _gaps(vec, flows):
    """Matching residuals x0_{i+1} - end_state_i, shape (N-1, n)."""
    ends = np.array([f.end_state for f in flows[:-1]])
    if vec.n_segments == 1:
        return np.zeros((0, vec.dim))
    return vec.states[1:] - ends


# ---------------------------------------------------------------------------
# objective


def objective_value(form, instance, vec, flows):
    """F(X) + R(X) for the active formulation."""
    total = 0.0
    if form.objective in ("endpoint_distance", "combined"):
        total += 0.5 * (
            instance.init.quadratic(vec.states[0])
            + instance.unsafe_set.quadratic(flows[-1].end_state)
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
    n, big_n = vec.dim, vec.n_segments
    grad = np.zeros(big_n * (n + 1))
    if form.objective in ("endpoint_distance", "combined"):
        grad[_x_rows(0, n)] += instance.init.shape @ (
            vec.states[0] - instance.init.center
        )
        w = instance.unsafe_set.shape @ (
            flows[-1].end_state - instance.unsafe_set.center
        )
        grad[_x_rows(big_n - 1, n)] += flows[-1].sensitivity.T @ w
        grad[_t_row(big_n - 1, n)] += float(flows[-1].end_derivative @ w)
    if form.objective in ("matching_gap", "combined"):
        gaps = _gaps(vec, flows)
        for i in range(big_n - 1):
            grad[_x_rows(i + 1, n)] += gaps[i]
            grad[_x_rows(i, n)] -= flows[i].sensitivity.T @ gaps[i]
            grad[_t_row(i, n)] -= float(flows[i].end_derivative @ gaps[i])
    reg_grad = _regularizer_gradient(form.regularizer, vec.times)
    for i in range(big_n):
        grad[_t_row(i, n)] += reg_grad[i]
    return grad


# ---------------------------------------------------------------------------
# constraints


def constraint_value(kind, instance, vec, flows):
    """Active constraint vector; the matching_boundary order is
    [initial-boundary row, matching blocks, unsafe-boundary row]."""
    parts = []
    if kind in ("matching_boundary", "boundary"):
        parts.append([0.5 * (instance.init.quadratic(vec.states[0]) - 1.0)])
    if kind in ("matching", "matching_boundary"):
        parts.append(_gaps(vec, flows).ravel())
    if kind in ("matching_boundary", "boundary"):
        parts.append(
            [0.5 * (instance.unsafe_set.quadratic(flows[-1].end_state) - 1.0)]
        )
    if not parts:
        return np.zeros(0)
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


def constraint_jacobian(kind, instance, vec, flows):
    """Sparse B with B[:, j] = gradient of constraint j, packed layout rows.

    Assembled from (row, column, value) triplets; entries that come out
    exactly zero are not stored.
    """
    n, big_n = vec.dim, vec.n_segments
    m1 = big_n * (n + 1)
    m2 = constraint_dim(kind, n, big_n)
    rows, cols, vals = [], [], []

    def column(col, seg, x_part, t_part=None):
        """Column ``col``: x rows of segment ``seg``, then its t row."""
        rows.append(np.arange(n) + seg * (n + 1))
        cols.append(np.full(n, col))
        vals.append(x_part)
        if t_part is not None:
            rows.append([_t_row(seg, n)])
            cols.append([col])
            vals.append([t_part])

    col = 0
    if kind in ("matching_boundary", "boundary"):
        column(col, 0, instance.init.shape @ (vec.states[0] - instance.init.center))
        col += 1
    if kind in ("matching", "matching_boundary"):
        # joint i, column col + i*n + c: -S_i[c, :] on segment i's x rows,
        # -f_i[c] on its t row, and 1 on row c of segment i+1's x rows
        joints = np.arange(big_n - 1)
        block_cols = col + joints[:, None] * n + np.arange(n)          # (N-1, n)
        x_rows = joints[:, None] * (n + 1) + np.arange(n)              # (N-1, n)
        sens = np.array([f.sensitivity for f in flows[:-1]]).reshape(-1, n, n)
        ends = np.array([f.end_derivative for f in flows[:-1]]).reshape(-1, n)
        rows.append(np.broadcast_to(x_rows[:, None, :], (big_n - 1, n, n)).ravel())
        cols.append(np.broadcast_to(block_cols[:, :, None], (big_n - 1, n, n)).ravel())
        vals.append(-sens.ravel())
        rows.append(np.repeat(joints * (n + 1) + n, n))
        cols.append(block_cols.ravel())
        vals.append(-ends.ravel())
        rows.append((x_rows + n + 1).ravel())
        cols.append(block_cols.ravel())
        vals.append(np.ones((big_n - 1) * n))
        col += n * (big_n - 1)
    if kind in ("matching_boundary", "boundary"):
        w = instance.unsafe_set.shape @ (
            flows[-1].end_state - instance.unsafe_set.center
        )
        column(
            col, big_n - 1, flows[-1].sensitivity.T @ w, float(flows[-1].end_derivative @ w)
        )
    if rows:
        rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
    mat = sp.csc_matrix((vals, (rows, cols)), shape=(m1, m2))
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


# ---------------------------------------------------------------------------
# Lagrangian gradient, two paths


def lagrangian_gradient(form, instance, vec, lam, flows):
    """objective gradient + B lambda (the authoritative path)."""
    grad = objective_gradient(form, instance, vec, flows)
    if form.constraints != "none" and lam.flat.size:
        jac = constraint_jacobian(form.constraints, instance, vec, flows)
        grad = grad + jac @ lam.flat
    return grad


def lagrangian_gradient_direct(
    form, instance, vec, lam, flows, matching_residuals: Optional[np.ndarray] = None
):
    """Closed-form Lagrangian gradient for the six regularized formulations.

    Independent of :func:`lagrangian_gradient` (no Jacobian assembly); the
    two must agree.  ``matching_residuals`` overrides the gap vectors
    x0_{i+1} - end_state_i where the closed form uses them, which isolates
    the duration rows for degeneracy diagnostics: with zero residuals the
    eq10/eq13 duration rows collapse to the bare regularizer gradient.
    """
    key = (form.objective, form.regularizer, form.constraints)
    if key not in _DIRECT_FORMS:
        raise ValueError(
            f"no closed form for {key}; available: {sorted(_DIRECT_FORMS)}"
        )
    init_mult, unsafe_mult, inner_kind = _DIRECT_FORMS[key]
    n, big_n = vec.dim, vec.n_segments

    gaps = _gaps(vec, flows)
    if matching_residuals is not None:
        gaps = np.asarray(matching_residuals, dtype=float).reshape(big_n - 1, n)

    if inner_kind == "multiplier":
        inner = lam.matching if big_n > 1 else np.zeros((0, n))
    else:
        inner = gaps

    if init_mult == "lam":
        lam_init = lam.boundary[0]
    else:
        lam_init = 1.0
    if unsafe_mult == "lam":
        lam_unsafe = lam.boundary[1]
    else:
        lam_unsafe = 1.0

    init_vec = instance.init.shape @ (vec.states[0] - instance.init.center)
    w = instance.unsafe_set.shape @ (flows[-1].end_state - instance.unsafe_set.center)
    reg_grad = _regularizer_gradient(form.regularizer, vec.times)

    grad = np.zeros(big_n * (n + 1))
    for i in range(big_n):
        x_part = np.zeros(n)
        t_part = reg_grad[i]
        if i == 0:
            x_part += lam_init * init_vec
        else:
            x_part += inner[i - 1]
        if i < big_n - 1:
            x_part -= flows[i].sensitivity.T @ inner[i]
            t_part -= float(flows[i].end_derivative @ inner[i])
        else:
            x_part += lam_unsafe * (flows[i].sensitivity.T @ w)
            t_part += lam_unsafe * float(flows[i].end_derivative @ w)
        grad[_x_rows(i, n)] = x_part
        grad[_t_row(i, n)] = t_part
    return grad


# (init term coefficient, unsafe term coefficient, inner vectors) per combo;
# "lam" marks a Lagrange multiplier, "one" a plain objective term, and the
# inner vectors are joint multipliers or the matching gaps themselves.
_DIRECT_FORMS = {
    ("zero", "total_squared", "matching_boundary"): ("lam", "lam", "multiplier"),
    ("endpoint_distance", "total_squared", "matching"): ("one", "one", "multiplier"),
    ("matching_gap", "total_squared", "boundary"): ("lam", "lam", "gap"),
    ("matching_gap", "successive_difference", "boundary"): ("lam", "lam", "gap"),
    ("matching_gap", "mean_deviation", "boundary"): ("lam", "lam", "gap"),
    ("combined", "total_squared", "none"): ("one", "one", "gap"),
}
