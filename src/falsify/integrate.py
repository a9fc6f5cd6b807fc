"""Adaptive ODE integration of flows and variational (sensitivity) equations.

The integrator is an embedded Dormand-Prince 5(4) pair with a PI step-size
controller (Hairer, Norsett & Wanner, vol. I, sec. II.4).  Negative durations
are first class: the solver simply steps backward in time.  Sensitivities are
obtained by integrating the augmented system of dimension n + n**2,

    dx/dt = f(t, x),    dS/dt = (df/dx)(t, x) S,    S(0) = I,

rather than by finite differences, because downstream Jacobian accuracy is
what drives the outer optimizer's convergence.

Independent initial-value problems run in lockstep: ``flow`` and
``flow_with_sensitivity`` accept a batch of B start states (the rows of
``x0``) with one duration each, and a single stepping loop advances every
lane at once.  Each lane keeps its own time, step size, controller state and
outcome, and leaves the batch when it reaches its end time or fails; a
failing lane does not stop the others, and ``flow_with_sensitivity(...,
per_lane=True)`` returns each lane's outcome instead of raising for the
first failure.  All arithmetic is elementwise per lane, so a lane's result
is bitwise the same whatever else shares its batch.
A stage calls the system once on the whole batch, times (B,) and states
(B, m), a batch of one lane included, and writes its derivative straight
into the step's (B, 7, m) stage buffer, so a stage allocates no augmented
array of its own.  A lane that runs alone, the last one left in a batch or the
only one of a call, finishes on a one-lane stepper: the same operations on
one state (m,) and a (7, m) stage buffer, with Python-float step control,
so it keeps its bits and skips the batch loop's bookkeeping on length-1
arrays.  A stage of ``flow_with_sensitivity`` is one call of the system's
:meth:`~falsify.systems.OdeSystem.variational_stage` on z = [x, S
row-major] of length m = n + n**2: a system with a ``variational`` kernel
writes f into ``out[..., :n]`` and J S into ``out[..., n:]`` itself (the
built-in systems do), any other composes ``rhs`` and ``state_jacobian``,
with J S through ``np.matmul(..., out=...)`` on a C-contiguous (..., n, n)
J.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorConfig",
    "FlowResult",
    "IntegrationFailure",
    "flow",
    "flow_with_sensitivity",
    "numba_path_enabled",
]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for an order-5 error estimate.
_EXP_ERR = -0.7 / 5.0
_EXP_PREV = 0.4 / 5.0


class IntegrationFailure(Exception):
    """The adaptive stepper could not reach the requested end time.

    ``lane`` is the index of the failing lane in a batched call (0 for a
    single initial-value problem); a raising batched call reports its
    lowest failing lane.
    """

    def __init__(self, message, lane=0):
        super().__init__(message)
        self.lane = lane


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget of the adaptive integrator.

    Defaults are two orders of magnitude tighter than the optimizer's
    constraint tolerance so integration error never masquerades as
    constraint violation.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    max_steps: int = 100_000

    def __post_init__(self):
        if not all(tol > 0 and math.isfinite(tol) for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class FlowResult:
    """End state, sensitivity matrix and end-point derivative of one segment.

    A batched call returns the same fields with a leading lane axis, and
    :func:`falsify.shooting.evaluate_segments` with a leading segment axis.
    """

    end_state: np.ndarray     # x(t0 + duration): (n,), or (B, n) per lane/segment
    sensitivity: np.ndarray   # d end_state / d x0: (n, n), or (B, n, n)
    end_derivative: np.ndarray  # f(t0 + duration, end_state): (n,), or (B, n)


def numba_path_enabled():
    """Always False: integration has a single numpy path.

    Kept because benchmark reports record this flag in their metadata, and
    reports taken when a compiled path existed are not comparable.
    """
    return False


# Dormand-Prince coefficients.  C/A: stage nodes and weights, B: 5th order
# solution, E: difference between the 5th and embedded 4th order weights.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_C_FLOATS = _C.tolist()

_OK, _TOO_MANY_STEPS, _STEP_UNDERFLOW = 0, 1, 2

_STATUS_MESSAGES = {
    _TOO_MANY_STEPS: "step budget exhausted (max_steps={max_steps})",
    _STEP_UNDERFLOW: "step size underflow (state likely left the finite range)",
}


def _rms(v):
    """Root mean square over the last axis."""
    return np.sqrt((v * v).sum(axis=-1) / v.shape[-1])


def _initial_step(stage, t0, y0, f0, direction, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale).tolist()
    d1 = _rms(f0 / scale).tolist()
    h0 = np.array(
        [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
    )
    f1 = np.empty_like(f0)
    stage(t0 + direction * h0, y0 + (direction * h0)[:, None] * f0, f1)
    d2 = (_rms((f1 - f0) / scale) / h0).tolist()
    h1 = [
        max(1e-6, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        for a, b, c in zip(h0.tolist(), d1, d2)
    ]
    return np.minimum(100.0 * h0, h1)


def _step_factor(err, err_prev):
    """PI-controller factor for the next step size of one lane."""
    if err <= 1.0:  # accepted
        if err == 0.0:
            return _MAX_FACTOR
        return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** _EXP_ERR * err_prev ** _EXP_PREV))
    if math.isfinite(err):
        return min(_SAFETY, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
    return _MIN_FACTOR


def _rk45(stage, y0, duration, rtol, atol, max_steps):
    """Dormand-Prince 5(4) over the rows of ``y0``, all lanes in lockstep.

    ``stage(t, y, out)`` maps lane times (B,) and states (B, m) to
    derivatives and writes them into ``out``, a (B, m) view of the step's
    stage buffer; its return value is ignored.  Returns the end states and
    a status code per lane.  A lane leaves the batch when it reaches its
    end time, when its step size underflows or when the step budget runs
    out, with the state and status it had then; the other lanes run on.
    Once a single lane is left (or the batch starts with one), it finishes
    in :func:`_rk45_one`, which calls ``stage`` on its time scalar and
    state (m,), with the step count, controller state and stage it had in
    the batch.

    Stage sums are one matrix-vector product per lane, and step-size
    control is scalar arithmetic per lane (numpy's vectorized power rounds
    differently from the scalar one for a few percent of arguments), so
    each lane takes the steps a one-at-a-time integrator would.
    """
    y_end = y0.copy()
    status = np.full(len(y0), _OK)
    lanes = np.flatnonzero(duration != 0.0)
    if not lanes.size:
        return y_end, status
    y, t_end = y0[lanes], duration[lanes]
    direction = np.sign(t_end)
    t = np.zeros(lanes.size)
    k0 = np.empty_like(y)
    stage(t, y, k0)
    h = direction * np.minimum(
        _initial_step(stage, t, y, k0, direction, rtol, atol), np.abs(t_end)
    )
    err_prev = np.full(lanes.size, 1e-4)

    # every lane still in the batch has taken exactly `steps` steps
    steps = 0
    while True:
        left = (t_end - t) * direction  # time left, > 0 while a lane runs
        running = left > 0.0
        size = np.abs(h)
        tiny = size < 1e-15 * np.maximum(np.abs(t), 1.0)
        if steps >= max_steps:
            status[lanes[running]] = _TOO_MANY_STEPS
            running[:] = False
        elif tiny.any():
            # only a step the controller chose can underflow; a step cut to
            # the end time is taken however short it is
            tiny &= size < left
            status[lanes[tiny]] = _STEP_UNDERFLOW
            running &= ~tiny
        if not running.all():
            y_end[lanes[~running]] = y[~running]
            lanes, y, k0, t, t_end, direction, err_prev, left, size = (
                a[running] for a in (lanes, y, k0, t, t_end, direction, err_prev, left, size)
            )
            if not lanes.size:
                return y_end, status
        if lanes.size == 1:
            # h is not filtered above: the lane's own step is direction * size
            y_end[lanes[0]], status[lanes[0]] = _rk45_one(
                stage, y[0], k0[0], t.item(), t_end.item(), (direction * size).item(),
                err_prev.item(), steps, rtol, atol, max_steps,
            )
            return y_end, status
        steps += 1
        # h and the time left share the sign `direction`: clip h to the end
        h = direction * np.minimum(size, left)

        hc = h[:, None]
        nodes = t + np.multiply.outer(_C, h)
        k = np.empty((len(y), 7, y.shape[1]))
        k[:, 0] = k0
        for s in range(1, 6):
            stage(nodes[s], y + hc * (_A[s] @ k[:, :s]), k[:, s])
        y_new = y + hc * (_B @ k[:, :6])
        stage(nodes[5], y_new, k[:, 6])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(hc * (_E @ k) / scale)

        factor = [_step_factor(e, p) for e, p in zip(err.tolist(), err_prev.tolist())]
        accept = err <= 1.0  # False for nan and inf
        if accept.all():
            t = nodes[5]
            y = y_new
            k0 = k[:, 6]  # first-same-as-last
            err_prev = np.maximum(err, 1e-4)
        else:
            t = np.where(accept, nodes[5], t)
            y = np.where(accept[:, None], y_new, y)
            k0 = np.where(accept[:, None], k[:, 6], k0)
            err_prev = np.where(accept, np.maximum(err, 1e-4), err_prev)
        h = h * factor


def _rk45_one(stage, y, k0, t, t_end, h, err_prev, steps, rtol, atol, max_steps):
    """The lockstep loop of :func:`_rk45` on one lane: its end state and
    status.

    Takes the lane as the batch left it: state ``y`` (m,), first stage
    ``k0``, time, end time, signed step and previous error as Python floats,
    and the steps taken so far.  Step control is Python float arithmetic
    and the stages live in one (7, m) buffer, so a step makes a few numpy
    calls on (m,) arrays; every operation is the batch loop's on one lane,
    so the lane keeps its bits.
    """
    direction = math.copysign(1.0, t_end)
    k = np.empty((7, len(y)))
    k[0] = k0
    while True:
        left = (t_end - t) * direction
        if not left > 0.0:
            return y, _OK
        if steps >= max_steps:
            return y, _TOO_MANY_STEPS
        size = abs(h)
        if size < 1e-15 * max(abs(t), 1.0) and size < left:
            return y, _STEP_UNDERFLOW
        steps += 1
        h = direction * min(size, left)

        for s in range(1, 6):
            stage(t + _C_FLOATS[s] * h, y + h * (_A[s] @ k[:s]), k[s])
        y_new = y + h * (_B @ k[:6])
        t_new = t + _C_FLOATS[5] * h
        stage(t_new, y_new, k[6])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(h * (_E @ k) / scale).item()

        factor = _step_factor(err, err_prev)
        if err <= 1.0:
            t, y = t_new, y_new
            k[0] = k[6]  # first-same-as-last
            err_prev = max(err, 1e-4)
        h = h * factor


def _rhs_stage(system):
    """f(t, x) written into ``out``: the stage of :func:`flow`, and the
    end-point derivative of :func:`flow_with_sensitivity`."""

    def stage(t, x, out):
        f = system.rhs(t, x)
        out[...] = system.checked(f, x.shape) if x.ndim > 1 else f

    return stage


def _as_batch(system, x0, duration):
    """Start states as (B, n) and durations as (B,), validated."""
    n = system.dim
    batch = x0.shape[:-1]
    if x0.ndim not in (1, 2) or x0.shape[-1] != n or duration.shape not in ((), batch):
        raise ValueError(
            f"x0 must have shape ({n},) or (B, {n}) and duration shape () or (B,), "
            f"got {x0.shape} and {duration.shape}"
        )
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(duration))):
        raise ValueError("x0 and duration must be finite")
    return x0.reshape(-1, n), np.broadcast_to(duration, batch).reshape(-1)


def _integrate(system, stage, z0, duration, cfg):
    """End states of every lane integrated on ``stage``, and an
    :class:`IntegrationFailure` for each lane that failed, keyed by lane."""
    z_end, status = _rk45(stage, z0, duration, cfg.rel_tol, cfg.abs_tol, cfg.max_steps)
    bad = (status != _OK) | ~np.all(np.isfinite(z_end), axis=1)
    failures = {}
    for lane in np.flatnonzero(bad).tolist():
        if status[lane] != _OK:
            message = (
                _STATUS_MESSAGES[int(status[lane])].format(max_steps=cfg.max_steps)
                + f" while integrating '{system.label}' over duration {float(duration[lane])!r}"
            )
        else:
            message = f"non-finite state while integrating '{system.label}'"
        failures[lane] = IntegrationFailure(message, lane)
    return z_end, failures


def flow(system, x0, duration, cfg=None):
    """Solution of dx/dt = f(t, x) after ``duration`` time units from ``x0``.

    ``x0`` is one state (n,) or a batch (B, n) with ``duration`` a scalar or
    one duration per lane; the result has the shape of ``x0``.  Negative
    durations integrate backward in time.  Raises :class:`IntegrationFailure`
    when the stepper exceeds its budget or the state blows up.
    """
    x0 = np.asarray(x0, dtype=float)
    xs, ts = _as_batch(system, x0, np.asarray(duration, dtype=float))
    z_end, failures = _integrate(system, _rhs_stage(system), xs, ts, cfg or DEFAULT_CONFIG)
    if failures:
        raise failures[min(failures)]
    return z_end.reshape(x0.shape)


def flow_with_sensitivity(system, x0, duration, cfg=None, *, per_lane=False):
    """Flow plus the sensitivity matrix S = d(end state)/d(x0).

    Integrates the augmented state/variational system in one pass and
    returns a :class:`FlowResult`; ``end_derivative`` is the right-hand side
    evaluated at the end point.  Batched like :func:`flow`: for ``x0`` of
    shape (B, n) every field gains a leading lane axis, and a failing lane
    raises :class:`IntegrationFailure` for the lowest one.  With
    ``per_lane`` set nothing raises: the call returns ``(result,
    failures)``, where ``failures`` maps each failing lane to its
    :class:`IntegrationFailure` and that lane's entries of ``result`` are
    NaN, while every other lane holds its own flow.
    """
    x0 = np.asarray(x0, dtype=float)
    xs, ts = _as_batch(system, x0, np.asarray(duration, dtype=float))
    n = system.dim
    identity = np.broadcast_to(np.eye(n).ravel(), (len(xs), n * n))
    z0 = np.concatenate([xs, identity], axis=1)
    z_end, failures = _integrate(system, system.variational_stage, z0, ts, cfg or DEFAULT_CONFIG)
    if failures and not per_lane:
        raise failures[min(failures)]
    failed = list(failures)
    # a failed lane's end state may not be finite: the end-point rhs reads
    # its start state instead, and that lane's row is NaN afterwards
    z_end[failed] = z0[failed]
    end_state = z_end[:, :n]
    end_derivative = np.empty((len(xs), n))
    _rhs_stage(system)(ts, end_state, end_derivative)
    z_end[failed] = np.nan
    end_derivative[failed] = np.nan
    result = FlowResult(end_state, z_end[:, n:].reshape(len(xs), n, n), end_derivative)
    if x0.ndim == 1:
        result = FlowResult(
            result.end_state[0], result.sensitivity[0], result.end_derivative[0]
        )
    return (result, failures) if per_lane else result
