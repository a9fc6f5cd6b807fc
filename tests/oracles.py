"""Shared independent oracles for the test suite.

Everything here is deliberately written without reusing the library's own
derivative or assembly code: finite differences drive the gradient checks,
scipy's integrators provide reference flows, the rotation benchmark has
an explicit matrix-exponential solution, and the six regularized
formulations have closed-form Lagrangian gradients
(:func:`lagrangian_gradient_direct`) to compare with the library's one
path, objective gradient + B lambda, and the constraint Jacobian built from
triplets (:func:`constraint_jacobian_triplets`) gives the CSC arrays the
library's column-by-column build must equal.  The dense LDL^T KKT solve
as three separate passes, the BFGS rank-two formula
(:func:`reference_bfgs`, the one copy the Hessian tests and the acceptance
suite compare the library's update with), the update block by block
through it (:func:`blockwise_update`, the reference of the stacked one),
and a one-dimensional system that blows up in finite time live here too.
Two helpers call into the solver on purpose: :func:`trial` and
:func:`merit_slope` give the merit tests the m(alpha) and m'(0) that the
line search uses, and :func:`singular_kkt_on_third_solve` and
:func:`kkt_systems` wrap its KKT ladder, the latter to collect the saddle
systems of a run.  Tolerance constants match the acceptance thresholds.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from falsify import integrate, sqp
from falsify.formulation import (
    FORMULATION_NAMES,
    Formulation,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    objective_gradient,
)
from falsify.hessian import _MIN_RCOND
from falsify.integrate import DEFAULT_CONFIG, IntegratorConfig
from falsify.kkt import KktSolution, SingularSystem
from falsify.shooting import (
    Ellipsoid,
    ProblemInstance,
    ShootingVector,
    evaluate_many,
    evaluate_segments,
    unpack,
)
from falsify.systems import OdeSystem, benchmark2, benchmark3, rotation_matrix

_potrf, _pocon = scipy.linalg.get_lapack_funcs(("potrf", "pocon"), dtype=np.float64)

# finite differences need flows far more accurate than the default solver
# tolerances, otherwise integrator noise dominates the h^2 truncation error
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
FD_STEP = 1e-4


def fd_gradient(func, x, h=FD_STEP):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (func(x + step) - func(x - step)) / (2.0 * h)
    return grad


def fd_jacobian(func, x, m, h=FD_STEP):
    """Central-difference Jacobian (x.size rows, m columns) of a vector map."""
    x = np.asarray(x, dtype=float)
    jac = np.zeros((x.size, m))
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        jac[k] = (func(x + step) - func(x - step)) / (2.0 * h)
    return jac


def fd_flows(instance, flat, cfg=TIGHT, h=FD_STEP):
    """Segment flows at every central-difference point of ``flat``.

    The points are built as :func:`fd_gradient` and :func:`fd_jacobian`
    build them and integrated in one batch; the result maps each point's
    bytes to its flows.
    """
    flat = np.asarray(flat, dtype=float)
    points = []
    for k in range(flat.size):
        step = np.zeros_like(flat)
        step[k] = h
        points += [flat + step, flat - step]
    vecs = [unpack(p, instance.system.dim, instance.n_segments) for p in points]
    return {p.tobytes(): f for p, f in zip(points, evaluate_many(instance, vecs, cfg))}


def relative_error(approx, exact):
    """||approx - exact|| / max(1, ||exact||), the acceptance normalization."""
    return float(np.linalg.norm(approx - exact)) / max(1.0, float(np.linalg.norm(exact)))


def _augmented(system, x0, sensitivity):
    """(fun, z0, unpack) of one IVP for a serial stepper: ``fun(t, z)`` is
    the system's right-hand side, with ``sensitivity`` followed by the
    variational equations on the flattened n x n sensitivity matrix, ``z0``
    the start vector (``x0``, then the identity), and ``unpack`` turns an
    end vector into the end state or (end state, sensitivity matrix)."""
    n = system.dim

    def fun(t, z):
        x = z[:n]
        dx = np.asarray(system.rhs(t, x), dtype=float)
        if not sensitivity:
            return dx
        sens = z[n:].reshape(n, n)
        return np.concatenate([dx, (system.state_jacobian(t, x) @ sens).ravel()])

    def unpack_end(z_end):
        if not sensitivity:
            return z_end
        return z_end[:n], z_end[n:].reshape(n, n)

    z0 = np.asarray(x0, dtype=float)
    if sensitivity:
        z0 = np.concatenate([z0, np.eye(n).ravel()])
    return fun, z0, unpack_end


def scipy_flow(system, x0, duration, rtol=1e-12, atol=1e-12, sensitivity=False):
    """Reference end state from scipy's DOP853: the library's pair, but
    scipy's own stepper and step control.  With ``sensitivity`` it
    integrates the variational equations as well and returns (end state,
    sensitivity matrix)."""
    fun, z0, unpack_end = _augmented(system, x0, sensitivity)
    sol = solve_ivp(fun, (0.0, duration), z0, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return unpack_end(sol.y[:, -1])


def rotation_flow_matrix(n, t):
    """Closed form exp(A t) for the block rotation generator [[0,1],[-1,0]]."""
    mat = np.zeros((n, n))
    c, s = np.cos(t), np.sin(t)
    for i in range(0, n, 2):
        mat[i, i] = c
        mat[i, i + 1] = s
        mat[i + 1, i] = -s
        mat[i + 1, i + 1] = c
    return mat


def blowup_system():
    """dx/dt = x^2 in one dimension, batch-capable: from x0 > 0 the state
    blows up at t = 1/x0."""
    return OdeSystem(1, lambda t, x: x * x, lambda t, x: 2.0 * x[..., None], "blowup")


def two_ball_instance(system, horizon=5.0, radius=0.25, n_segments=5, center=None):
    """Instance in the benchmark style: unsafe ball at the flow image of c_I."""
    if center is None:
        center = np.ones(system.dim)
    center = np.asarray(center, dtype=float)
    end = scipy_flow(system, center, horizon)
    return ProblemInstance(
        system,
        Ellipsoid.ball(center, radius),
        Ellipsoid.ball(end, radius),
        n_segments,
    )


def benchmark2_instance(n_segments=5):
    return two_ball_instance(benchmark2(), n_segments=n_segments)


def benchmark3_instance(n=4, n_segments=5):
    return two_ball_instance(benchmark3(n), n_segments=n_segments)


def random_vector_near_guess(instance, rng, scale=0.3, horizon=5.0):
    """Random shooting vector: perturbed equal split of the center trajectory.

    Durations stay positive and states stay near the reference trajectory so
    every segment integrates comfortably.
    """
    n = instance.system.dim
    n_seg = instance.n_segments
    states = np.empty((n_seg, n))
    point = instance.init.center.astype(float)
    dt = horizon / n_seg
    for i in range(n_seg):
        states[i] = point + scale * rng.standard_normal(n)
        point = scipy_flow(instance.system, point, dt, rtol=1e-10, atol=1e-10)
    times = dt * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=n_seg))
    return ShootingVector(states, times)


def random_flat_near_guess(instance, rng, scale=0.3, horizon=5.0):
    vec = random_vector_near_guess(instance, rng, scale, horizon)
    return np.column_stack([vec.states, vec.times]).ravel()


def unpack_flat(instance, flat):
    return unpack(np.asarray(flat, dtype=float), instance.system.dim, instance.n_segments)


def trial(form, instance, base_flat, d_x, alpha, lam_full, omega, cfg):
    """(m(alpha), point) at the trial vector base + alpha d_x, integrated in
    a one-vector :func:`evaluate_many` batch and valued by the solver's own
    ``sqp._trial_merit``, as the line search values each trial."""
    vec = unpack_flat(instance, base_flat + alpha * d_x)
    (flows,) = evaluate_many(instance, [vec], cfg)
    return sqp._trial_merit(form, instance, vec, flows, lam_full, omega)


def singular_kkt_on_third_solve(monkeypatch):
    """From now on, the third call of `sqp._solve_step` raises
    :class:`SingularSystem`, as a KKT ladder with no finite step does; every
    other call solves.  A run's first two iterations finish before it."""
    solve_step = sqp._solve_step
    calls = []

    def failing_third(system, method):
        calls.append(method)
        if len(calls) == 3:
            raise SingularSystem("no KKT rung produced a finite step")
        return solve_step(system, method)

    monkeypatch.setattr(sqp, "_solve_step", failing_third)


def kkt_systems(monkeypatch):
    """The list into which, from now on, every saddle system `sqp.run`
    hands `sqp._solve_step` goes, in order, before it is solved.  Each
    holds its own copy of the Hessian blocks, so a kept system still
    describes the step it produced after the run's later BFGS updates."""
    solve_step = sqp._solve_step
    systems = []

    def recording(system, method):
        hess = replace(system.hess, blocks=system.hess.blocks.copy())
        systems.append(replace(system, hess=hess))
        return solve_step(system, method)

    monkeypatch.setattr(sqp, "_solve_step", recording)
    return systems


def merit_slope(form, instance, vec, lam_full, d_x, omega, cfg):
    """The solver's own m'(0) at ``vec`` for the multipliers after a full
    step, ``lam_full`` = lam + d_lam; the merit values come from
    :func:`trial`."""
    flows = evaluate_segments(instance, vec, cfg)
    kind = form.constraints
    return sqp._merit_slope(
        objective_gradient(form, instance, vec, flows),
        constraint_jacobian(kind, instance, vec, flows),
        constraint_value(kind, instance, vec, flows),
        lam_full,
        d_x,
        omega,
    )


# ---------------------------------------------------------------------------
# closed-form Lagrangian gradients of the regularized formulations

# (objective, regularizer, constraints) of the regularized eq8 ... eq13
_CLOSED_FORMS = {
    (form.objective, form.regularizer, form.constraints)
    for form in map(Formulation.by_name, FORMULATION_NAMES)
    if form.regularizer != "none"
}


def regularizer_gradient(reg, times):
    """Gradient of the duration regularizer ``reg``, one formula per kind."""
    if reg == "total_squared":
        return times.copy()
    if reg == "successive_difference":
        # d/dt_i of 0.5 sum (t_{j+1} - t_j)^2 = (t_i - t_{i-1}) - (t_{i+1} - t_i)
        diff = np.diff(times)
        return np.concatenate([[0.0], diff]) - np.concatenate([diff, [0.0]])
    if reg == "mean_deviation":
        return times - times.mean()
    return np.zeros_like(times)


def lagrangian_gradient_direct(form, instance, vec, lam, flows):
    """Closed-form Lagrangian gradient for the six regularized formulations.

    Independent of the library's objective gradient and Jacobian assembly:
    one loop over segments reads the multipliers in B's column order, the
    boundary multipliers first and last and the (N-1, n) joint multipliers
    between them.  An unregularized formulation or a wrong multiplier
    length raises ``ValueError``.
    """
    key = (form.objective, form.regularizer, form.constraints)
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed form for {key}; available: {sorted(_CLOSED_FORMS)}")
    kind = form.constraints
    n, big_n = vec.dim, vec.n_segments
    m2 = constraint_dim(kind, n, big_n)
    if np.shape(lam) != (m2,):
        raise ValueError(f"multiplier vector for {kind!r} must have length {m2}")

    # without boundary constraints the boundary terms are objective terms;
    # without matching constraints the gaps stand in for the joint multipliers
    if kind in ("matching_boundary", "boundary"):
        lam_init, lam_unsafe = lam[0], lam[-1]
    else:
        lam_init = lam_unsafe = 1.0
    if kind in ("matching", "matching_boundary"):
        joints = lam[1:-1] if kind == "matching_boundary" else lam
        inner = joints.reshape(big_n - 1, n)
    else:
        inner = vec.states[1:] - flows.end_state[:-1]

    init_vec = instance.init.shape @ (vec.states[0] - instance.init.center)
    w = instance.unsafe_set.shape @ (flows.end_state[-1] - instance.unsafe_set.center)
    reg_grad = regularizer_gradient(form.regularizer, vec.times)

    grad = np.zeros((big_n, n + 1))
    for i in range(big_n):
        x_part = np.zeros(n)
        t_part = reg_grad[i]
        if i == 0:
            x_part += lam_init * init_vec
        else:
            x_part += inner[i - 1]
        if i < big_n - 1:
            x_part -= flows.sensitivity[i].T @ inner[i]
            t_part -= float(flows.end_derivative[i] @ inner[i])
        else:
            x_part += lam_unsafe * (flows.sensitivity[i].T @ w)
            t_part += lam_unsafe * float(flows.end_derivative[i] @ w)
        grad[i, :n] = x_part
        grad[i, n] = t_part
    return grad.ravel()


# ---------------------------------------------------------------------------
# constraint Jacobian from triplets


def constraint_jacobian_triplets(kind, instance, vec, flows):
    """B assembled from (row, column, value) triplets, converted to CSC,
    with its exact zeros eliminated and its indices sorted: the arrays
    :func:`falsify.formulation.constraint_jacobian` must reproduce."""
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
            rows.append([seg * (n + 1) + n])
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
        rows.append(np.broadcast_to(x_rows[:, None, :], (big_n - 1, n, n)).ravel())
        cols.append(np.broadcast_to(block_cols[:, :, None], (big_n - 1, n, n)).ravel())
        vals.append(-flows.sensitivity[:-1].ravel())
        rows.append(np.repeat(joints * (n + 1) + n, n))
        cols.append(block_cols.ravel())
        vals.append(-flows.end_derivative[:-1].ravel())
        rows.append((x_rows + n + 1).ravel())
        cols.append(block_cols.ravel())
        vals.append(np.ones((big_n - 1) * n))
        col += n * (big_n - 1)
    if kind in ("matching_boundary", "boundary"):
        w = instance.unsafe_set.shape @ (
            flows.end_state[-1] - instance.unsafe_set.center
        )
        column(
            col, big_n - 1, flows.sensitivity[-1].T @ w, float(flows.end_derivative[-1] @ w)
        )
    if rows:
        rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
    mat = sp.csc_matrix((vals, (rows, cols)), shape=(m1, m2))
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


# ---------------------------------------------------------------------------
# reference formulas of the built-in systems

# The right-hand sides and state Jacobians of benchmark1/2/3 as first
# written: broadcast copies of the rotation generator, a fancy-indexed
# anti-diagonal and transposed nested lists.  The library builds the same
# numbers with fewer copies and must match these bit for bit.


def _reference_rotate(x):
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 1::2]
    out[..., 1::2] = -x[..., 0::2]
    return out


def reference_functions(name, n):
    """(rhs, state_jacobian) of built-in system ``name`` of dimension ``n``."""
    if name == "benchmark2":

        def rhs(t, x):
            x1, x2, x3 = x.T
            return np.array([-x2 + x1 * x3, x1 + x2 * x3, -x3 - x1 * x1 - x2 * x2 + x3 * x3]).T

        def jac(t, x):
            x1, x2, x3 = x.T
            one = x3 ** 0
            return np.array(
                [[x3, one, -2.0 * x1], [-one, x3, -2.0 * x2], [x1, x2, -1.0 + 2.0 * x3]]
            ).T

        return rhs, jac

    a_mat = rotation_matrix(n)
    idx = np.arange(n)

    def rotation_jacobian(t, x):
        return np.broadcast_to(a_mat, x.shape[:-1] + a_mat.shape).copy()

    if name == "benchmark3":
        return (lambda t, x: _reference_rotate(x)), rotation_jacobian

    def benchmark1_jac(t, x):
        out = rotation_jacobian(t, x)
        out[..., idx, n - 1 - idx] += np.cos(x[..., n - 1 - idx])
        return out

    return (lambda t, x: _reference_rotate(x) + np.sin(x[..., ::-1])), benchmark1_jac


# ---------------------------------------------------------------------------
# serial reference integrator

# A one-IVP-at-a-time DOP853 loop with the library's coefficients and PI
# controller, scalar step control and stage sums as matrix products.  Every
# lane of the library's lockstep integrator must reproduce it.
_C, _A, _B, _E = integrate._C, integrate._A, integrate._B, integrate._E


def _initial_step(fun, t0, y0, f0, direction, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = fun(t0 + direction * h0, y0 + direction * h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1)


def _error_norm(k, h, y0, y1, rtol, atol):
    """|h| ||e5||^2 / sqrt(m (||e5||^2 + 0.01 ||e3||^2)) on the scaled
    estimates, 0 when both vanish."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    e5, e3 = np.sum(((_E @ k[:12]) / scale) ** 2, axis=1).tolist()
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt(y0.size * (e5 + 0.01 * e3))


def _serial_dop853(fun, y0, duration, rtol, atol, max_steps, first_step=None):
    """(end state, |h| of the last step before its cut to the end, 0 when no
    step was taken); the first step is ``first_step`` when that is > 0."""
    y = np.array(y0, dtype=float)
    if duration == 0.0:
        return y, 0.0
    direction = 1.0 if duration > 0.0 else -1.0
    t, t_end = 0.0, duration
    k = np.empty((13, y.size))
    k[0] = fun(t, y)
    if first_step is None or not first_step > 0.0:
        first_step = _initial_step(fun, t, y, k[0], direction, rtol, atol)
    h = direction * min(first_step, abs(duration))
    err_prev = 1e-4
    steps = 0
    while (t_end - t) * direction > 0.0:
        if steps >= max_steps:
            raise RuntimeError("step budget exhausted")
        steps += 1
        last = abs(h)
        if abs(h) > abs(t_end - t):
            h = t_end - t
        elif abs(h) < 1e-15 * max(abs(t), 1.0) and abs(h) < abs(t_end - t):
            raise RuntimeError("step size underflow")
        for s in range(1, 12):
            k[s] = fun(t + _C[s] * h, y + h * (_A[s] @ k[:s]))
        y_new = y + h * (_B @ k[:12])
        k[12] = fun(t + h, y_new)
        err = _error_norm(k, h, y, y_new, rtol, atol)
        if np.isfinite(err) and err <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[12]
            if err == 0.0:
                factor = 10.0
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)))
            err_prev = max(err, 1e-4)
            h = h * factor
        elif np.isfinite(err):
            h = h * min(0.9, max(0.2, 0.9 * err ** (-1.0 / 8.0)))
        else:
            h = h * 0.2
    return y, last


def serial_flow(system, x0, duration, cfg=DEFAULT_CONFIG, sensitivity=False, first_step=None):
    """End state of one IVP from the serial reference loop, started with a
    step of ``first_step`` when that is > 0.

    With ``sensitivity`` it integrates the variational equations as well
    and returns (end state, sensitivity matrix, last step), the last step
    being what :class:`~falsify.integrate.FlowResult` calls ``step``.
    """
    fun, z0, unpack_end = _augmented(system, x0, sensitivity)
    z_end, last = _serial_dop853(
        fun, z0, float(duration), cfg.rel_tol, cfg.abs_tol, cfg.max_steps, first_step
    )
    return (*unpack_end(z_end), last) if sensitivity else z_end


def serial_first_step(system, x0, duration, cfg=DEFAULT_CONFIG, sensitivity=False):
    """The first step size of the serial loop started without ``first_step``:
    the starting-step heuristic cut to |duration|, 0 for a zero duration."""
    if duration == 0.0:
        return 0.0
    fun, z0, _ = _augmented(system, x0, sensitivity)
    direction = 1.0 if duration > 0.0 else -1.0
    f0 = fun(0.0, z0)
    step = _initial_step(fun, 0.0, z0, f0, direction, cfg.rel_tol, cfg.abs_tol)
    return min(step, abs(float(duration)))


# ---------------------------------------------------------------------------
# KKT oracles


def ldl_pivot_magnitudes(mat):
    """|eigenvalues| of D in a lower Bunch-Kaufman LDL^T factorization of ``mat``."""
    _, d_factor, _ = scipy.linalg.ldl(mat)
    return np.abs(scipy.linalg.eigvalsh(d_factor))


def direct_three_pass(system):
    """The dense KKT solve as three O(m^3) passes, an independent reference
    for the banded LU of :func:`falsify.kkt.solve_direct`: a lower LDL^T
    factorization whose D feeds the singularity test through ``eigvalsh``,
    then a separate symmetric solve.  Raises and returns as
    ``solve_direct`` does.
    """
    mat = system.dense_matrix()
    rhs = system.rhs()
    if mat.shape[0] > 2000:
        raise ValueError("direct oracle limited to m1 + m2 <= 2000")

    eigs = ldl_pivot_magnitudes(mat)
    if eigs.max() == 0.0 or eigs.min() <= 1e-12 * eigs.max():
        raise SingularSystem(
            f"saddle matrix numerically singular (pivot ratio {eigs.min():.2e}/{eigs.max():.2e})"
        )
    sol = scipy.linalg.solve(mat, rhs, assume_a="sym")
    m1 = system.m1
    d_x, d_lam = sol[:m1], sol[m1:]
    residual = system.residual(d_x, d_lam)
    if residual >= 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystem(
            f"direct solve residual {residual:.2e} exceeds tolerance; system near-singular"
        )
    return KktSolution(d_x, d_lam, 0)


# ---------------------------------------------------------------------------
# BFGS update, one block at a time


def _well_conditioned(mat):
    """True when the symmetric ``mat`` has a Cholesky factor and a
    reciprocal condition number above ``hessian._MIN_RCOND``."""
    factor, info = _potrf(mat, lower=False, clean=False)
    if info != 0:
        return False
    rcond, info = _pocon(factor, np.abs(mat).sum(axis=0).max())
    return info == 0 and rcond > _MIN_RCOND


def curved_pair(rng, dim):
    """Random (s, y) with guaranteed positive curvature y^T s > 0, coupled
    densely through y = M s for a random SPD map M."""
    a = rng.standard_normal((dim, dim))
    spd = a @ a.T + dim * np.eye(dim)
    s = rng.standard_normal(dim)
    return s, spd @ s


def reference_bfgs(mat, s, y):
    """The BFGS rank-two formula H - (Hs)(Hs)^T / s^T H s + y y^T / y^T s,
    written out independently of the library and without any skip test."""
    hs = mat @ s
    return mat - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / (y @ s)


def _bfgs_inplace(mat, s, y):
    """Apply :func:`reference_bfgs` to ``mat`` in place; True when applied.

    Skips on y^T s <= 0 (curvature condition), on the degenerate
    s^T H s <= 0, and when the result would not be well conditioned.
    """
    if float(y @ s) <= 0.0 or float(s @ (mat @ s)) <= 0.0:
        return False
    updated = reference_bfgs(mat, s, y)
    if not _well_conditioned(updated):
        return False
    mat[...] = updated
    return True


def blockwise_update(hess, s, y):
    """(blocks, skip_count) after ``hess.update(s, y)``, computed block after
    block by the reference above, on a copy: the stacked
    :meth:`falsify.hessian.HessianApprox.update` must equal it bit for bit."""
    blocks = hess.blocks.copy()
    count, width, _ = blocks.shape
    applied = [
        _bfgs_inplace(block, s_block, y_block)
        for block, s_block, y_block in zip(blocks, s.reshape(count, width), y.reshape(count, width))
    ]
    return blocks, hess.skip_count + applied.count(False)
