"""Shooting parameterization: ellipsoid sets, segment vectors, segment flows.

A candidate trajectory is N segments, each a start state x0_i and a signed
duration t_i.  The packed parameter vector interleaves them as

    [x0_1, t_1, x0_2, t_2, ..., x0_N, t_N]   (length N*(n+1))

and every derivative in the optimizer is laid out in this order.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .integrate import FlowResult, IntegrationFailure, flow_with_sensitivity

__all__ = [
    "Ellipsoid",
    "ShootingVector",
    "DegenerateInstance",
    "ProblemInstance",
    "pack",
    "unpack",
    "evaluate_segments",
    "evaluate_many",
]


@dataclass(frozen=True)
class Ellipsoid:
    """Set { v : (v - center)^T shape (v - center) <= 1 }.

    ``shape`` must be symmetric positive definite.  ``Ellipsoid.ball(c, r)``
    builds the round special case with shape (1/r^2) I.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        shape = np.asarray(self.shape, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        n = center.shape[0]
        if shape.shape != (n, n):
            raise ValueError("shape matrix does not match center dimension")
        if np.abs(shape - shape.T).max() > 1e-12:
            raise ValueError("shape matrix must be symmetric (tol 1e-12)")
        if np.linalg.eigvalsh(shape).min() <= 0:
            raise ValueError("shape matrix must be positive definite")

    @classmethod
    def ball(cls, center, radius):
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("radius must be finite and positive")
        center = np.asarray(center, dtype=float)
        return cls(center, np.eye(center.size) / radius**2)

    @property
    def dim(self):
        return self.center.shape[0]

    def quadratic(self, v):
        """(v - center)^T shape (v - center)."""
        d = np.asarray(v, dtype=float) - self.center
        return float(d @ self.shape @ d)

    def distance(self, v):
        """Norm induced by the shape matrix; <= 1 means membership."""
        return float(np.sqrt(max(self.quadratic(v), 0.0)))


@dataclass(frozen=True)
class ShootingVector:
    """N segment start states (rows of ``states``) and durations ``times``."""

    states: np.ndarray  # (N, n)
    times: np.ndarray   # (N,)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        if states.shape[0] != times.shape[0] or times.shape[0] < 1:
            raise ValueError("need one duration per segment, N >= 1")

    @property
    def n_segments(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[1]


def pack(vec):
    """Flatten a ShootingVector into the interleaved parameter layout."""
    return np.column_stack([vec.states, vec.times]).ravel()


def unpack(flat, n, n_segments):
    """Inverse of :func:`pack`; validates the flat length N*(n+1)."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (n_segments * (n + 1),):
        raise ValueError(
            f"flat vector must have length {n_segments * (n + 1)}, got {flat.shape}"
        )
    grid = flat.reshape(n_segments, n + 1)
    return ShootingVector(grid[:, :n].copy(), grid[:, n].copy())


def _min_quadratic_over_ellipsoid(inner, quad):
    """Exact min of quad.quadratic(v) over v in the ``inner`` ellipsoid.

    In the coordinates w of the inner set's unit ball, v = inner.center +
    basis @ w, the quadratic has the positive definite Hessian ``mat`` and
    its free minimizer w(0) = -mat^{-1} g is the unsafe center.  If that
    center lies in the inner set the minimum is 0.  Otherwise the minimizer
    is w(mu) = -(mat + mu I)^{-1} g with |w(mu)| = 1; |w(mu)| decreases in
    mu and |w(|g|)| < 1, so the secular equation has its one root in
    (0, |g|] (More & Sorensen 1983, without the indefinite hard case).
    """
    if inner.quadratic(quad.center) <= 1.0:
        return 0.0
    basis = np.linalg.inv(np.linalg.cholesky(inner.shape).T)
    mat = basis.T @ quad.shape @ basis
    g = basis.T @ quad.shape @ (inner.center - quad.center)
    eigval, eigvec = np.linalg.eigh(mat)
    gt = eigvec.T @ g
    lo, hi = 0.0, float(np.sqrt(g @ g))
    mu = 0.5 * hi
    while lo < mu < hi:  # bisect until the bracket can no longer shrink
        w = gt / (eigval + mu)
        if w @ w > 1.0:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
    w = eigvec @ (-gt / (eigval + mu))
    return float(w @ mat @ w + 2.0 * g @ w + quad.quadratic(inner.center))


class DegenerateInstance(ValueError):
    """The initial and unsafe sets share their center: there is nothing to reach."""


@dataclass(frozen=True)
class ProblemInstance:
    """System dynamics plus the initial / unsafe ellipsoids and segment count."""

    system: object
    init: Ellipsoid
    unsafe_set: Ellipsoid
    n_segments: int

    def __post_init__(self):
        n = self.system.dim
        if self.init.dim != n or self.unsafe_set.dim != n:
            raise ValueError("ellipsoid dimensions must match the system")
        if self.n_segments < 1:
            raise ValueError("need at least one segment")
        if np.array_equal(self.init.center, self.unsafe_set.center):
            raise DegenerateInstance("initial and unsafe centers must be distinct")
        if _min_quadratic_over_ellipsoid(self.init, self.unsafe_set) <= 1.0:
            warnings.warn(
                "initial and unsafe sets overlap; the problem assumes they are disjoint",
                stacklevel=2,
            )

    @property
    def dim(self):
        return self.system.dim


def evaluate_segments(instance, vec, cfg=None, *, first_step=None):
    """Flow with sensitivity of every segment of ``vec``, one batched solve.

    Returns one :class:`FlowResult` whose fields carry a leading segment
    axis: ``end_state`` (N, n), ``sensitivity`` (N, n, n),
    ``end_derivative`` (N, n) and ``step`` (N,), row i computed from
    (x0_i, t_i).  ``first_step`` is as in :func:`evaluate_many`.  Raises
    :class:`IntegrationFailure` whose message names the first failing
    segment (1-based) and whose ``lane`` is its 0-based index.
    """
    (flows,) = evaluate_many(instance, [vec], cfg, first_step=first_step)
    if isinstance(flows, IntegrationFailure):
        raise flows
    return flows


def evaluate_many(instance, vecs, cfg=None, *, first_step=None):
    """The segment flows of each shooting vector in ``vecs``: one outcome each.

    The segments of all vectors are integrated in one lockstep batch, so
    each vector's flows equal those of its own :func:`evaluate_segments`
    call.  ``first_step``, when given, holds one first step size per
    segment, the same for every vector, typically the ``step`` of a nearby
    vector's flows (see :func:`~falsify.integrate.flow_with_sensitivity`).
    A vector's outcome is its :class:`FlowResult`, or, when one of
    its segments fails, an :class:`IntegrationFailure`, returned rather than
    raised, so the other vectors keep their flows.  Its message names the
    vector (when there are several) and its first failing segment, as in
    "vector 2, segment 3: ...", and its ``lane`` is that segment's index in
    the whole batch.
    """
    n_seg = instance.n_segments
    for vec in vecs:
        if vec.dim != instance.dim or vec.n_segments != n_seg:
            raise ValueError("shooting vector does not match the problem instance")
    states = np.concatenate([vec.states for vec in vecs])
    times = np.concatenate([vec.times for vec in vecs])
    if first_step is not None:
        first_step = np.tile(first_step, len(vecs))
    batch, failures = flow_with_sensitivity(
        instance.system, states, times, cfg, per_lane=True, first_step=first_step
    )
    n = instance.dim
    fields = (
        batch.end_state.reshape(-1, n_seg, n),
        batch.sensitivity.reshape(-1, n_seg, n, n),
        batch.end_derivative.reshape(-1, n_seg, n),
        batch.step.reshape(-1, n_seg),
    )
    outcomes = [FlowResult(*vector) for vector in zip(*fields)]
    # highest lane first, so each vector keeps its first failing segment
    for lane in sorted(failures, reverse=True):
        vector, segment = divmod(lane, n_seg)
        where = f"segment {segment + 1}"
        if len(vecs) > 1:
            where = f"vector {vector + 1}, {where}"
        outcomes[vector] = IntegrationFailure(f"{where}: {failures[lane]}", lane)
    return outcomes
