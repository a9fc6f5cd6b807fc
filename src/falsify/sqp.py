"""Line-search SQP driver for the multiple-shooting minimization problems.

Each iteration linearizes the constraints, solves the saddle-point system
for a primal-dual step, backtracks on an augmented-Lagrangian merit
function until the sufficient-decrease test holds, then applies the common
step length to both the shooting vector and the multipliers and refreshes
the quasi-Newton Hessian.  The multipliers are one float per column of the
constraint Jacobian B, starting at zero.  Every shooting vector the run
evaluates, the initial point and each trial, is integrated and given its
F + R and c once; the accepted trial becomes the next iterate as it is,
and only grad F, B and grad L are built on top of it.  Termination causes
mirror the stopping criteria S1 (converged), S2 (iteration budget), S3
(step length underflow), plus two failures that end in a report as well:
an integration failure at the start and a KKT system no rung steps from.

Each search starts at alpha = 1, or 1/2 after the least-squares rung, cut
down to the step length at which the largest duration step, |d_t|_inf, is
_STEP_BOUND * (1 + |t|_inf) with t the incumbent's durations: the standard
multiple-shooting bound on a step's change of scale (Bock & Plitt 1984;
Leineweber et al. 2003), so the search does not integrate trial points whose
durations leave the scale of the problem.

Backtracking is speculative: :func:`_trials` yields m and the point of each
step length alpha, alpha*beta, ... in the line search's order, integrating
the trial vectors of the next k step lengths in one lockstep batch, one
:func:`~falsify.shooting.evaluate_many` call whatever k, 1 included, when
the search asks for the first; F + R and c are computed only for the step
lengths it tests.  k starts at the previous iteration's trial count (1 on
the first) and doubles for each further batch of the same search, up to 8;
no step length below eps3 is integrated.  A lane whose integration fails
reads m = +inf while the other lanes keep their flows.  The ladder runs
only where a vector's augmented state, (n + n^2) N floats, is at most 1000
wide; elsewhere k is always 1.  Every lane is bitwise the lane a
one-at-a-time search would integrate, so the iterates do not depend on k.

Every trial integration is warm-started: each segment's first step is the
step the incumbent's flow of that segment ended with (``FlowResult.step``),
where the integrator would otherwise start from its starting-step heuristic
and take several steps to grow it (carrying step sizes from iterate to
iterate is the multiple-shooting practice of Bock & Plitt 1984).  A segment
whose incumbent took no step, a zero duration, starts from the heuristic.
Only the initial point is integrated fresh.  So the flows of the trial at
alpha = 0 would differ from the incumbent's, which started from its own
predecessor's steps, by integration error, as every trial at alpha > 0 does:
within the integrator's tolerances, not bitwise."""

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .formulation import (
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    lagrangian_gradient,
    objective_gradient,
    objective_value,
)
from .hessian import VARIANTS, init_identity
from .integrate import FlowResult, IntegrationFailure, IntegratorConfig
from .kkt import Breakdown, KktSolution, SaddleSystem, SingularSystem, solve_direct, solve_ppcg
from .shooting import ShootingVector, evaluate_many, evaluate_segments, pack, unpack

__all__ = [
    "KKT_METHODS",
    "Termination",
    "SqpConfig",
    "TraceRecord",
    "RunReport",
    "Attempt",
    "StepTooSmall",
    "line_search",
    "run",
]

KKT_METHODS = ("ppcg", "direct")
# Speculative backtracking integrates at most _LADDER_LANES trial vectors in
# one batch, and only when a vector's augmented state, (n + n^2) N floats, is
# at most _LADDER_WIDTH wide: past that, extra lanes cost about as much as
# integrating them one after another.
_LADDER_LANES = 8
_LADDER_WIDTH = 1000
# tau of the bound on each search's first step (see the module docstring)
_STEP_BOUND = 1.0


class StepTooSmall(Exception):
    """Backtracking drove the step length below the minimum (criterion S3)."""


class Termination(enum.Enum):
    S1_CONVERGED = "S1_converged"
    S2_MAXIT = "S2_maxit"
    S3_STEP_TOO_SMALL = "S3_step_too_small"
    INTEGRATION_FAILURE = "IntegrationFailure"
    SINGULAR_SYSTEM = "SingularSystem"


@dataclass(frozen=True)
class SqpConfig:
    """Solver constants; defaults follow the reference setup."""

    omega: float = 1.0
    delta: float = 1e-4
    eps1: float = 1e-3
    eps2: float = 1e-8
    eps3: float = 1e-8
    max_iter: int = 400
    backtrack_factor: float = 0.5
    hessian_variant: str = "full"
    kkt_method: str = "ppcg"
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        for name in ("omega", "eps1", "eps2", "eps3"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.hessian_variant not in VARIANTS:
            raise ValueError(f"unknown hessian variant {self.hessian_variant!r}")
        if self.kkt_method not in KKT_METHODS:
            raise ValueError(f"unknown kkt method {self.kkt_method!r}")


@dataclass(frozen=True)
class TraceRecord:
    """Incumbent statistics at the top of an iteration plus the step taken.

    ``merit_zero`` and ``merit_slope`` are m(0) and m'(0) for the direction
    actually used, so the sufficient-decrease inequality of every accepted
    step can be re-checked after the run.  ``kkt_rung`` names the rung of
    the KKT fallback ladder that produced the step: "ppcg", "direct" or
    "lstsq".  ``alpha_start`` is the step length the search started from:
    below 1 where the lstsq rung or the duration bound cut it.
    """

    iteration: int
    objective: float
    constraint_norm: float
    gradient_norm: float
    alpha: float
    merit: float
    merit_zero: float
    merit_slope: float
    cg_iterations: int
    kkt_rung: str
    alpha_start: float = 1.0


@dataclass(frozen=True)
class Attempt:
    """The KKT solve and search of the iteration a run ended on in S3 or
    SingularSystem, which the trace, holding accepted steps only, leaves out.

    The fields mean what the :class:`TraceRecord` fields of the same names
    do; with no rung producing a step, ``kkt_rung`` is None,
    ``cg_iterations`` 0 and the floats NaN.
    """

    kkt_rung: Optional[str]
    cg_iterations: int
    alpha_start: float
    merit_zero: float
    merit_slope: float


_NO_STEP = Attempt(None, 0, math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class RunReport:
    """Outcome of :func:`run`, with one final multiplier per column of B."""

    nit: int
    termination: Termination
    final_X: object
    final_objective: float
    final_constraint_norm: float
    trace: tuple
    #: multipliers at the final iterate, for diagnostics
    final_multipliers: np.ndarray
    #: BFGS updates skipped, on the curvature test or because the result would
    #: be ill-conditioned (one per block for blockdiag)
    hessian_skips: int = 0
    #: the failing iteration of a run that ends in S3 or SingularSystem
    last_attempt: Optional[Attempt] = None


def _merit_value(objective, lam_full, c_val, omega):
    """F + (lam+d_lam)^T c + (omega/2)||c||^2, added in that order.

    Every merit value of a run, m(0) included, goes through here, so the
    sufficient-decrease test compares sums rounded the same way.
    """
    value = objective + float(lam_full @ c_val)
    return value + 0.5 * omega * float(c_val @ c_val)


class _Point(NamedTuple):
    """One evaluated shooting vector: its segment flows, F + R and c."""

    vec: ShootingVector
    flows: FlowResult
    objective: float
    c_val: np.ndarray


def _point(formulation, instance, vec, flows):
    """The :class:`_Point` of ``vec`` with its integrated ``flows``."""
    return _Point(
        vec,
        flows,
        objective_value(formulation, instance, vec, flows),
        constraint_value(formulation.constraints, instance, vec, flows),
    )


def _ladder_cap(system, n_segments):
    """Most trial vectors one batch of :func:`run` integrates on ``system``
    with ``n_segments`` segments: 1 where the ladder does not pay."""
    n = system.dim
    if (n + n * n) * n_segments <= _LADDER_WIDTH:
        return _LADDER_LANES
    return 1


def _trial_merit(formulation, instance, vec, flows, lam_full, omega):
    """(m, point) of an integrated trial vector.

    Integration failure at the trial point yields (+inf, None): the step is
    simply rejected, and the incumbent is never touched here.
    """
    if isinstance(flows, IntegrationFailure):
        return math.inf, None
    point = _point(formulation, instance, vec, flows)
    return _merit_value(point.objective, lam_full, point.c_val, omega), point


def _step_lengths(alpha, backtrack_factor, eps3):
    """alpha, alpha*beta, alpha*beta^2, ... with beta = ``backtrack_factor``,
    as long as the step length is at least ``eps3``: the step lengths
    :func:`line_search` tests, in its order."""
    while alpha >= eps3:
        yield alpha
        alpha *= backtrack_factor


def _trials(formulation, instance, cfg, point, d_x, lam_full, alpha_start, width, cap):
    """(m, point) of the trial point + alpha d_x, or (+inf, None), for each
    alpha of ``_step_lengths(alpha_start, ...)``, in :func:`line_search`'s
    order.  The trials are integrated from the incumbent's last steps in
    batches of ``min(width, cap)`` vectors, the width doubling up to ``cap``
    after each batch, when the batch's first alpha is asked for."""
    n, n_segments = instance.system.dim, instance.n_segments
    flat = pack(point.vec)
    alphas = _step_lengths(alpha_start, cfg.backtrack_factor, cfg.eps3)
    width = min(width, cap)
    while batch := list(itertools.islice(alphas, width)):
        vecs = [unpack(flat + alpha * d_x, n, n_segments) for alpha in batch]
        outcomes = evaluate_many(instance, vecs, cfg.integrator, first_step=point.flows.step)
        for vec, flows in zip(vecs, outcomes):
            yield _trial_merit(formulation, instance, vec, flows, lam_full, cfg.omega)
        width = min(2 * width, cap)


def _merit_slope(grad_f, jac, c_val, lam_full, d_x, omega):
    """m'(0) = d_x^T grad F + d_x^T B(lam+d_lam) + omega d_x^T B c, added in that order."""
    slope = float(d_x @ grad_f)
    slope += float(d_x @ (jac @ lam_full))
    return slope + omega * float(d_x @ (jac @ c_val))


def line_search(
    evaluate: Callable[[float], float],
    merit_zero: float,
    slope: float,
    delta: float,
    backtrack_factor: float,
    eps3: float,
    alpha_start: float = 1.0,
):
    """Backtracking search for the largest alpha passing sufficient decrease.

    ``evaluate`` maps alpha to the merit value (or +inf).  Accepts the first
    alpha in {alpha_start, alpha_start*beta, ...} with
    m(alpha) - m(0) <= delta * alpha * m'(0); raises :class:`StepTooSmall`,
    before any evaluation when the slope is not finite and negative, or when
    alpha falls below ``eps3``.
    """
    if not -math.inf < slope < 0.0:
        raise StepTooSmall(f"search direction is not a descent direction (m'(0)={slope:.3e})")
    for alpha in _step_lengths(alpha_start, backtrack_factor, eps3):
        value = evaluate(alpha)
        if value - merit_zero <= delta * alpha * slope:
            return alpha, value
    raise StepTooSmall(f"step length fell below {eps3:.1e}")


def _solve_step(system, method):
    """KKT solve with the documented fallback ladder.

    PPCG breakdowns fall back to the banded LU direct solve; a singular
    direct solve (gbtrf finds an exactly zero pivot, the diagonal of U is
    rank deficient, or the residual check fails) falls back
    to the dense minimum-norm least-squares direction with the line search
    started at alpha = 1/2 instead of 1.  Returns the solution, the initial
    step length and the name of the rung that solved.  A system holding a
    NaN or an infinity raises :class:`SingularSystem` before any rung runs:
    no rung can solve it, and each would fail in its own way.  So does a
    least-squares step that is not finite: then no rung produced one.
    """
    if not system.is_finite():
        raise SingularSystem("non-finite saddle system: H, B or the rhs holds NaN or inf")
    if method == "ppcg":
        try:
            return solve_ppcg(system), 1.0, "ppcg"
        except Breakdown:
            pass
    try:
        return solve_direct(system), 1.0, "direct"
    except SingularSystem:
        sol, *_ = np.linalg.lstsq(system.dense_matrix(), system.rhs(), rcond=None)
        if not np.all(np.isfinite(sol)):
            raise SingularSystem("no KKT rung produced a finite step")
        m1 = system.m1
        return KktSolution(sol[:m1], sol[m1:], 0), 0.5, "lstsq"


def _linearize(formulation, instance, point, lam):
    """(grad F, B, grad L) at an accepted point.

    B is the sparse (m1, m2) constraint Jacobian; the unconstrained
    formulations get an empty (m1, 0) B like any other.
    """
    vec, flows = point.vec, point.flows
    grad_f = objective_gradient(formulation, instance, vec, flows)
    jac = constraint_jacobian(formulation.constraints, instance, vec, flows)
    return grad_f, jac, lagrangian_gradient(grad_f, jac, lam)


def run(formulation, instance, X_init, cfg=None):
    """Run the SQP iteration from ``X_init`` until S1, S2, S3, or failure.

    Two runs with identical inputs produce identical traces, whether or not
    :func:`_trials` batches their trials.  Each shooting vector is
    integrated once and evaluated at most once: the accepted trial point,
    with its flows, F and c, becomes the next iterate, and B is built once
    per accepted point.  ``X_init`` is integrated from the integrator's
    starting-step heuristic and every trial from the incumbent's last step
    sizes, one per segment (see the module docstring).  A failure ends the
    run with a report too: an integration failure at ``X_init`` in
    ``INTEGRATION_FAILURE``, and a KKT system that is not finite or that no
    rung solves to a finite step in ``SINGULAR_SYSTEM``, keeping the
    iterations done and the incumbent.  A run that ends in S3 or
    ``SINGULAR_SYSTEM`` reports the iteration that failed as
    ``last_attempt``, since the trace holds accepted steps only.
    """
    cfg = cfg or SqpConfig()
    lam = np.zeros(constraint_dim(formulation.constraints, instance.dim, instance.n_segments))
    hess = init_identity(cfg.hessian_variant, instance.system.dim, instance.n_segments)
    try:
        flows = evaluate_segments(instance, X_init, cfg.integrator)
    except IntegrationFailure:
        return RunReport(0, Termination.INTEGRATION_FAILURE, X_init, math.nan, math.nan, (), lam)
    point = _point(formulation, instance, X_init, flows)
    grad_f, jac, grad_l = _linearize(formulation, instance, point, lam)
    trace = []
    n = instance.system.dim
    cap = _ladder_cap(instance.system, instance.n_segments)
    # lanes of an iteration's first batch: the previous iteration's trial count
    width = 1

    def report(cause, attempt=None):
        return RunReport(
            it, cause, point.vec, point.objective, cnorm, tuple(trace), lam, hess.skip_count,
            attempt,
        )

    it = 0
    while True:
        gnorm = float(np.linalg.norm(grad_l))
        cnorm = float(np.linalg.norm(point.c_val))
        if gnorm < cfg.eps1 and cnorm < cfg.eps2:
            return report(Termination.S1_CONVERGED)
        if it >= cfg.max_iter:
            return report(Termination.S2_MAXIT)

        system = SaddleSystem(hess, jac, -grad_l, -point.c_val)
        try:
            solution, alpha_start, rung = _solve_step(system, cfg.kkt_method)
        except SingularSystem:
            return report(Termination.SINGULAR_SYSTEM, _NO_STEP)
        d_x, d_lam = solution.d_x, solution.d_lambda
        step_t = float(np.max(np.abs(d_x[n :: n + 1])))
        if step_t > 0.0:
            scale = 1.0 + float(np.max(np.abs(point.vec.times)))
            alpha_start = min(alpha_start, _STEP_BOUND * scale / step_t)

        lam_full = lam + d_lam
        merit_zero = _merit_value(point.objective, lam_full, point.c_val, cfg.omega)
        slope = _merit_slope(grad_f, jac, point.c_val, lam_full, d_x, cfg.omega)
        search = _trials(formulation, instance, cfg, point, d_x, lam_full, alpha_start, width, cap)
        # line_search accepts the last alpha it evaluates
        trials = []

        def evaluate(alpha):
            # the search's step lengths are the generator's, in the same order
            value, trial = next(search)
            trials.append(trial)
            return value

        try:
            alpha, merit_value = line_search(
                evaluate, merit_zero, slope, cfg.delta, cfg.backtrack_factor, cfg.eps3, alpha_start
            )
        except StepTooSmall:
            attempt = Attempt(rung, solution.cg_iterations, alpha_start, merit_zero, slope)
            return report(Termination.S3_STEP_TOO_SMALL, attempt)

        trace.append(
            TraceRecord(
                it, point.objective, cnorm, gnorm, alpha, merit_value, merit_zero, slope,
                solution.cg_iterations, rung, alpha_start,
            )
        )

        lam_new = lam + alpha * d_lam
        # quasi-Newton data: both gradients at the updated multipliers
        grad_old = lagrangian_gradient(grad_f, jac, lam_new)
        point, lam, width = trials[-1], lam_new, len(trials)
        grad_f, jac, grad_l = _linearize(formulation, instance, point, lam)
        hess.update(alpha * d_x, grad_l - grad_old)
        it += 1
