"""Adaptive ODE integration of flows and variational (sensitivity) equations.

The integrator is DOP853, the embedded Dormand-Prince 8(5,3) pair, with a
PI step-size controller (Hairer, Norsett & Wanner, vol. I, sec. II.4 and
II.10): 12 stages per step plus the first-same-as-last one, and an error
estimate that combines the embedded 5th and 3rd order solutions.  Negative
durations are first class: the solver simply steps backward in time.
Sensitivities are obtained by integrating the augmented system of dimension
n + n**2,

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
is bitwise the same whatever else shares its batch.  A lane starts from the
starting-step heuristic, or from a step the caller hands over (``first_step``
of ``flow_with_sensitivity``, typically the ``step`` a nearby integration
ended with).
A stage calls the system once on the whole batch, times (B,) and states
(B, m), a batch of one lane included, and writes its derivative straight
into the step's (B, 13, m) stage buffer, so a stage allocates no augmented
array of its own.  A lane that runs alone, the last one left in a batch or the
only one of a call, finishes on a one-lane stepper: the same operations on
one state (m,) and a (13, m) stage buffer, with Python-float step control,
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
# Step-size exponents for an order-8 step: the PI controller's, the factor
# of a rejected step and the initial step's.
_EXP_ERR = -0.7 / 8.0
_EXP_PREV = 0.4 / 8.0
_EXP_REJECT = -1.0 / 8.0
_EXP_INITIAL = 1.0 / 8.0


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
    """End state, sensitivity matrix and end-point derivative of one segment,
    and the step size the integrator ended with.

    A batched call returns the same fields with a leading lane axis, and
    :func:`falsify.shooting.evaluate_segments` with a leading segment axis.
    ``step`` is the magnitude the step-size controller had chosen for the
    segment's last step, before that step was cut to end at the segment's
    end: a first step for a nearby segment (see ``first_step`` of
    :func:`flow_with_sensitivity`).  It is 0 for a segment that took no step
    and NaN for a failed one.
    """

    end_state: np.ndarray     # x(t0 + duration): (n,), or (B, n) per lane/segment
    sensitivity: np.ndarray   # d end_state / d x0: (n, n), or (B, n, n)
    end_derivative: np.ndarray  # f(t0 + duration, end_state): (n,), or (B, n)
    step: np.ndarray          # last chosen step magnitude: (), or (B,)


def numba_path_enabled():
    """Always False: integration has a single numpy path.

    Kept because benchmark reports record this flag in their metadata, and
    reports taken when a compiled path existed are not comparable.
    """
    return False


# DOP853 coefficients (Hairer, Norsett & Wanner, vol. I, sec. II.10; Prince &
# Dormand 1981).  C/A: nodes and weights of the 12 stages, with C[12] = 1 the
# node of the first-same-as-last stage f(t + h, y_new); B: the 8th order
# solution; E: the differences between B and the embedded 5th order (row 0)
# and 3rd order (row 1) weights.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0
])
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1
    ]),
    np.array([
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1
    ]),
    np.array([
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2
    ]),
    np.array([
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3
    ]),
    np.array([
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1
    ]),
    np.array([
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2
    ]),
    np.array([
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022
    ]),
    np.array([
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1
    ]),
]
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2
])
_E = np.array([
    [
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
        -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1
    ],
    _B - np.array([
        0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1
    ]),
])
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
        max(1e-6, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** _EXP_INITIAL
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
        return min(_SAFETY, max(_MIN_FACTOR, _SAFETY * err ** _EXP_REJECT))
    return _MIN_FACTOR


def _error_sums(k, scale):
    """Squared norms of the scaled 5th and 3rd order error estimates, the
    last axis of the result: (..., 2) for stages ``k`` (..., 13, m) and
    ``scale`` (..., m)."""
    e = (_E @ k[..., :12, :]) / scale[..., None, :]
    return (e * e).sum(axis=-1)


def _dop853(stage, y0, duration, rtol, atol, max_steps, first_step=None):
    """DOP853 over the rows of ``y0``, all lanes in lockstep.

    ``stage(t, y, out)`` maps lane times (B,) and states (B, m) to
    derivatives and writes them into ``out``, a (B, m) view of the step's
    stage buffer; its return value is ignored.  Returns the end states, a
    status code and the last chosen step magnitude per lane (0 for a lane
    that took no step).  A lane's first step is its entry of ``first_step``
    where that is > 0, else :func:`_initial_step`'s, either cut to the
    lane's |duration|.  A lane leaves the batch when it reaches its end
    time, when its step size underflows or when the step budget runs out,
    with the state and status it had then; the other lanes run on.  Once a
    single lane is left (or the batch starts with one), it finishes in
    :func:`_dop853_one`, which calls ``stage`` on its time scalar and state
    (m,), with the step count, controller state and stage it had in the
    batch.

    The error of a step of size h combines the two embedded estimates e5
    and e3, scaled per component (Hairer, Norsett & Wanner, vol. I,
    sec. II.10): err = |h| ||e5||^2 / sqrt(m (||e5||^2 + 0.01 ||e3||^2)),
    and 0 when both vanish.  Stage sums are one matrix-vector product per
    lane, and step-size control is scalar arithmetic per lane (numpy's
    vectorized power rounds differently from the scalar one for a few
    percent of arguments), so each lane takes the steps a one-at-a-time
    integrator would.
    """
    y_end = y0.copy()
    status = np.full(len(y0), _OK)
    step = np.zeros(len(y0))
    lanes = np.flatnonzero(duration != 0.0)
    if not lanes.size:
        return y_end, status, step
    y, t_end = y0[lanes], duration[lanes]
    m = y.shape[1]
    direction = np.sign(t_end)
    t = np.zeros(lanes.size)
    k0 = np.empty_like(y)
    stage(t, y, k0)
    size = np.full(lanes.size, np.nan) if first_step is None else first_step[lanes]
    fresh = ~(size > 0.0)  # also NaN
    if fresh.any():
        size[fresh] = _initial_step(
            stage, t[fresh], y[fresh], k0[fresh], direction[fresh], rtol, atol
        )
    h = direction * np.minimum(size, np.abs(t_end))
    err_prev = np.full(lanes.size, 1e-4)
    chosen = np.zeros(lanes.size)  # step magnitude before the cut to the end

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
            step[lanes[~running]] = chosen[~running]
            lanes, y, k0, t, t_end, direction, err_prev, left, size, chosen = (
                a[running]
                for a in (lanes, y, k0, t, t_end, direction, err_prev, left, size, chosen)
            )
            if not lanes.size:
                return y_end, status, step
        if lanes.size == 1:
            # h is not filtered above: the lane's own step is direction * size
            lane = lanes[0]
            y_end[lane], status[lane], step[lane] = _dop853_one(
                stage, y[0], k0[0], t.item(), t_end.item(), (direction * size).item(),
                err_prev.item(), steps, chosen.item(), rtol, atol, max_steps,
            )
            return y_end, status, step
        steps += 1
        # h and the time left share the sign `direction`: clip h to the end
        chosen = size
        size = np.minimum(size, left)
        h = direction * size

        hc = h[:, None]
        nodes = t + np.multiply.outer(_C, h)
        k = np.empty((len(y), 13, m))
        k[:, 0] = k0
        for s in range(1, 12):
            stage(nodes[s], y + hc * (_A[s] @ k[:, :s]), k[:, s])
        y_new = y + hc * (_B @ k[:, :12])
        stage(nodes[12], y_new, k[:, 12])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        sums = _error_sums(k, scale)
        e5, e3 = sums[:, 0], sums[:, 1]
        denom = np.sqrt(m * (e5 + 0.01 * e3))
        err = size * e5 / np.where(denom > 0.0, denom, 1.0)

        factor = [_step_factor(e, p) for e, p in zip(err.tolist(), err_prev.tolist())]
        accept = err <= 1.0  # False for nan and inf
        if accept.all():
            t = nodes[12]
            y = y_new
            k0 = k[:, 12]  # first-same-as-last
            err_prev = np.maximum(err, 1e-4)
        else:
            t = np.where(accept, nodes[12], t)
            y = np.where(accept[:, None], y_new, y)
            k0 = np.where(accept[:, None], k[:, 12], k0)
            err_prev = np.where(accept, np.maximum(err, 1e-4), err_prev)
        h = h * factor


def _dop853_one(stage, y, k0, t, t_end, h, err_prev, steps, chosen, rtol, atol, max_steps):
    """The lockstep loop of :func:`_dop853` on one lane: its end state,
    status and last chosen step magnitude.

    Takes the lane as the batch left it: state ``y`` (m,), first stage
    ``k0``, time, end time, signed step, previous error and last chosen step
    magnitude as Python floats, and the steps taken so far.  Step control is
    Python float arithmetic and the stages live in one (13, m) buffer, so a
    step makes a few numpy calls on (m,) arrays; every operation is the
    batch loop's on one lane, so the lane keeps its bits.
    """
    direction = math.copysign(1.0, t_end)
    m = len(y)
    k = np.empty((13, m))
    k[0] = k0
    while True:
        left = (t_end - t) * direction
        if not left > 0.0:
            return y, _OK, chosen
        if steps >= max_steps:
            return y, _TOO_MANY_STEPS, chosen
        size = abs(h)
        if size < 1e-15 * max(abs(t), 1.0) and size < left:
            return y, _STEP_UNDERFLOW, chosen
        steps += 1
        chosen = size
        size = min(size, left)
        h = direction * size

        for s in range(1, 12):
            stage(t + _C_FLOATS[s] * h, y + h * (_A[s] @ k[:s]), k[s])
        y_new = y + h * (_B @ k[:12])
        t_new = t + _C_FLOATS[12] * h
        stage(t_new, y_new, k[12])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        e5, e3 = _error_sums(k, scale).tolist()
        denom = math.sqrt(m * (e5 + 0.01 * e3))
        err = size * e5 / (denom if denom > 0.0 else 1.0)

        factor = _step_factor(err, err_prev)
        if err <= 1.0:
            t, y = t_new, y_new
            k[0] = k[12]  # first-same-as-last
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


def _integrate(system, stage, z0, duration, cfg, first_step=None):
    """End states and last chosen step magnitudes of every lane integrated
    on ``stage``, and an :class:`IntegrationFailure` for each lane that
    failed, keyed by lane."""
    z_end, status, step = _dop853(
        stage, z0, duration, cfg.rel_tol, cfg.abs_tol, cfg.max_steps, first_step
    )
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
    return z_end, step, failures


def flow(system, x0, duration, cfg=None):
    """Solution of dx/dt = f(t, x) after ``duration`` time units from ``x0``.

    ``x0`` is one state (n,) or a batch (B, n) with ``duration`` a scalar or
    one duration per lane; the result has the shape of ``x0``.  Negative
    durations integrate backward in time.  Raises :class:`IntegrationFailure`
    when the stepper exceeds its budget or the state blows up.
    """
    x0 = np.asarray(x0, dtype=float)
    xs, ts = _as_batch(system, x0, np.asarray(duration, dtype=float))
    z_end, _, failures = _integrate(system, _rhs_stage(system), xs, ts, cfg or DEFAULT_CONFIG)
    if failures:
        raise failures[min(failures)]
    return z_end.reshape(x0.shape)


def flow_with_sensitivity(system, x0, duration, cfg=None, *, per_lane=False, first_step=None):
    """Flow plus the sensitivity matrix S = d(end state)/d(x0).

    Integrates the augmented state/variational system in one pass and
    returns a :class:`FlowResult`; ``end_derivative`` is the right-hand side
    evaluated at the end point, and ``step`` the last step the controller
    chose.  Batched like :func:`flow`: for ``x0`` of shape (B, n) every
    field gains a leading lane axis, and a failing lane raises
    :class:`IntegrationFailure` for the lowest one.  With ``per_lane`` set
    nothing raises: the call returns ``(result, failures)``, where
    ``failures`` maps each failing lane to its :class:`IntegrationFailure`
    and that lane's entries of ``result`` are NaN, while every other lane
    holds its own flow.

    ``first_step``, a scalar or one magnitude per lane, is the size of each
    lane's first step, cut to its |duration|: a warm start from the
    ``step`` of a nearby integration, in place of the starting-step
    heuristic (Hairer, Norsett & Wanner, vol. I, sec. II.4).  An entry that
    is not > 0 falls back to the heuristic for its lane: 0, the ``step`` of a
    lane that took no step, and NaN, that of a failed lane.
    """
    x0 = np.asarray(x0, dtype=float)
    xs, ts = _as_batch(system, x0, np.asarray(duration, dtype=float))
    if first_step is not None:
        first_step = np.broadcast_to(np.asarray(first_step, dtype=float), ts.shape)
    n = system.dim
    identity = np.broadcast_to(np.eye(n).ravel(), (len(xs), n * n))
    z0 = np.concatenate([xs, identity], axis=1)
    z_end, step, failures = _integrate(
        system, system.variational_stage, z0, ts, cfg or DEFAULT_CONFIG, first_step
    )
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
    step[failed] = np.nan
    result = FlowResult(end_state, z_end[:, n:].reshape(len(xs), n, n), end_derivative, step)
    if x0.ndim == 1:
        result = FlowResult(
            result.end_state[0], result.sensitivity[0], result.end_derivative[0], result.step[0]
        )
    return (result, failures) if per_lane else result
