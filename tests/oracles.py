"""Shared independent oracles for the test suite.

Everything here is deliberately written without reusing the library's own
derivative or assembly code: finite differences drive the gradient checks,
scipy's integrators provide reference flows, and the rotation benchmark has
an explicit matrix-exponential solution.  Tolerance constants match the
acceptance thresholds.
"""

import numpy as np
from scipy.integrate import solve_ivp

from falsify.integrate import DEFAULT_CONFIG, IntegratorConfig
from falsify.shooting import Ellipsoid, ProblemInstance, ShootingVector, evaluate_many, unpack
from falsify.systems import benchmark2, benchmark3

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


def scipy_flow(system, x0, duration, rtol=1e-12, atol=1e-12):
    """Reference end state from scipy's DOP853 (independent stepper family)."""
    sol = solve_ivp(
        system.rhs,
        (0.0, duration),
        np.asarray(x0, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    assert sol.success, sol.message
    return sol.y[:, -1]


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


# ---------------------------------------------------------------------------
# serial reference integrator

# A one-IVP-at-a-time Dormand-Prince loop with the library's coefficients
# and PI controller, scalar step control and stage sums as matrix products.
# Every lane of the library's lockstep integrator must reproduce it.
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


def _error_norm(err_vec, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err_vec / scale) ** 2)))


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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _serial_rk45(fun, y0, duration, rtol, atol, max_steps):
    y = np.array(y0, dtype=float)
    if duration == 0.0:
        return y
    direction = 1.0 if duration > 0.0 else -1.0
    t, t_end = 0.0, duration
    k = np.empty((7, y.size))
    k[0] = fun(t, y)
    h = direction * min(
        _initial_step(fun, t, y, k[0], direction, rtol, atol), abs(duration)
    )
    err_prev = 1e-4
    steps = 0
    while (t_end - t) * direction > 0.0:
        if steps >= max_steps:
            raise RuntimeError("step budget exhausted")
        steps += 1
        if abs(h) > abs(t_end - t):
            h = t_end - t
        if abs(h) < 1e-15 * max(abs(t), 1.0):
            raise RuntimeError("step size underflow")
        for s in range(1, 6):
            k[s] = fun(t + _C[s] * h, y + h * (_A[s] @ k[:s]))
        y_new = y + h * (_B @ k[:6])
        k[6] = fun(t + h, y_new)
        err = _error_norm(h * (_E @ k), y, y_new, rtol, atol)
        if np.isfinite(err) and err <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]
            if err == 0.0:
                factor = 10.0
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)))
            err_prev = max(err, 1e-4)
            h = h * factor
        elif np.isfinite(err):
            h = h * min(0.9, max(0.2, 0.9 * err ** -0.2))
        else:
            h = h * 0.2
    return y


def serial_flow(system, x0, duration, cfg=DEFAULT_CONFIG, sensitivity=False):
    """End state of one IVP from the serial reference loop.

    With ``sensitivity`` it integrates the variational equations as well
    and returns (end state, sensitivity matrix).
    """
    n = system.dim

    def fun(t, z):
        x = z[:n]
        dx = np.asarray(system.rhs(t, x), dtype=float)
        if not sensitivity:
            return dx
        sens = z[n:].reshape(n, n)
        return np.concatenate([dx, (system.state_jacobian(t, x) @ sens).ravel()])

    z0 = np.asarray(x0, dtype=float)
    if sensitivity:
        z0 = np.concatenate([z0, np.eye(n).ravel()])
    z_end = _serial_rk45(fun, z0, float(duration), cfg.rel_tol, cfg.abs_tol, cfg.max_steps)
    if not sensitivity:
        return z_end
    return z_end[:n], z_end[n:].reshape(n, n)
