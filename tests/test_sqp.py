"""Tests for the merit function, line search, and the SQP driver."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

import falsify.formulation
import falsify.sqp
from falsify.bench import BenchSpec, generate_instance, initial_guess
from falsify.formulation import (
    Formulation,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    objective_gradient,
    objective_value,
)
from falsify.hessian import HessianApprox
from falsify.integrate import DEFAULT_CONFIG, IntegrationFailure, IntegratorConfig
from falsify.shooting import (
    Ellipsoid,
    ProblemInstance,
    ShootingVector,
    evaluate_segments,
    pack,
)
from falsify.kkt import Breakdown, SaddleSystem, SingularSystem, solve_ppcg
from falsify.sqp import (
    Attempt,
    SqpConfig,
    StepTooSmall,
    Termination,
    _solve_step,
    _step_lengths,
    line_search,
    run,
)

from oracles import (
    TIGHT,
    benchmark2_instance,
    blowup_system,
    kkt_systems,
    merit_slope,
    random_vector_near_guess,
    singular_kkt_on_third_solve,
    trial,
    unpack_flat,
)

TIGHT_SQP = SqpConfig(integrator=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12))


def test_merit_at_zero_matches_formula():
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(301)
    form = Formulation.by_name("eq8")
    vec = random_vector_near_guess(instance, rng)
    flows = evaluate_segments(instance, vec, TIGHT)
    m2 = constraint_dim(form.constraints, 3, 4)
    lam = rng.standard_normal(m2)
    d_lam = rng.standard_normal(m2)
    omega = 1.0
    c_val = constraint_value(form.constraints, instance, vec, flows)
    expected = (
        objective_value(form, instance, vec, flows)
        + (lam + d_lam) @ c_val
        + 0.5 * omega * (c_val @ c_val)
    )
    zero_step = np.zeros(vec.n_segments * 4)
    value, _ = trial(form, instance, pack(vec), zero_step, 0.0, lam + d_lam, omega, TIGHT)
    assert value == pytest.approx(expected, rel=1e-12)


def test_merit_reduces_to_objective_when_unconstrained():
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(307)
    form = Formulation.by_name("eq13")
    vec = random_vector_near_guess(instance, rng)
    d_x = 0.01 * rng.standard_normal(12)
    value, _ = trial(form, instance, pack(vec), d_x, 1.0, np.zeros(0), 1.0, TIGHT)
    moved = unpack_flat(instance, np.column_stack([vec.states, vec.times]).ravel() + d_x)
    expected = objective_value(
        form, instance, moved, evaluate_segments(instance, moved, TIGHT)
    )
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["eq8", "eq13"])
def test_recorded_merit_zero_is_the_merit_at_alpha_zero(monkeypatch, name):
    """m(0) and m'(0) of the first step are bitwise the solver's merit at
    alpha = 0 and its _merit_slope.  The collected system is a snapshot:
    the Hessian update after the step does not reach it, so solving it
    after the run gives the step."""
    instance = benchmark2_instance(n_segments=4)
    guess = initial_guess(instance, 4)
    form = Formulation.by_name(name)
    cfg = SqpConfig(max_iter=1)
    seen = kkt_systems(monkeypatch)
    report = run(form, instance, guess, cfg)
    assert report.nit == 1 and len(seen) == 1
    solution, _, _ = _solve_step(seen[0], cfg.kkt_method)
    lam = np.zeros(constraint_dim(form.constraints, 3, 4))
    value, _ = trial(
        form, instance, pack(guess), solution.d_x, 0.0, lam + solution.d_lambda,
        cfg.omega, cfg.integrator,
    )
    assert value == report.trace[0].merit_zero
    slope = merit_slope(
        form, instance, guess, lam + solution.d_lambda, solution.d_x, cfg.omega,
        cfg.integrator,
    )
    assert slope == report.trace[0].merit_slope


def test_merit_is_infinite_when_the_trial_point_blows_up():
    instance = ProblemInstance(
        blowup_system(), Ellipsoid.ball(np.zeros(1), 0.25), Ellipsoid.ball(np.ones(1), 0.25), 1
    )
    vec = ShootingVector(np.array([[0.1]]), np.array([1.0]))
    form = Formulation.by_name("eq13")
    # step pushes the start state to 2.1 for 1 time unit: finite-time blowup
    d_x = np.array([2.0, 0.0])
    value, _ = trial(form, instance, pack(vec), d_x, 1.0, np.zeros(0), 1.0, DEFAULT_CONFIG)
    assert value == np.inf


def test_merit_derivative_matches_finite_differences():
    instance = benchmark2_instance(n_segments=4)
    rng = np.random.default_rng(311)
    for name in ("eq8", "eq9", "eq10", "eq13"):
        form = Formulation.by_name(name)
        vec = random_vector_near_guess(instance, rng)
        m2 = constraint_dim(form.constraints, 3, 4)
        lam = rng.standard_normal(m2)
        d_x = 0.1 * rng.standard_normal(16)
        lam_full = lam + rng.standard_normal(m2)
        analytic = merit_slope(form, instance, vec, lam_full, d_x, 1.0, TIGHT)
        h = 1e-6
        plus, _ = trial(form, instance, pack(vec), d_x, h, lam_full, 1.0, TIGHT)
        minus, _ = trial(form, instance, pack(vec), d_x, -h, lam_full, 1.0, TIGHT)
        fd = (plus - minus) / (2.0 * h)
        assert analytic == pytest.approx(fd, rel=1e-5), name


def test_merit_derivative_zero_step_is_zero():
    instance = benchmark2_instance(n_segments=3)
    form = Formulation.by_name("eq9")
    vec = initial_guess(instance, 3, cfg=TIGHT)
    value = merit_slope(form, instance, vec, np.zeros(6), np.zeros(12), 1.0, TIGHT)
    assert value == 0.0


def test_merit_derivative_unconstrained_is_gradient_projection():
    instance = benchmark2_instance(n_segments=3)
    rng = np.random.default_rng(313)
    form = Formulation.by_name("eq7")
    vec = random_vector_near_guess(instance, rng)
    flows = evaluate_segments(instance, vec, TIGHT)
    d_x = rng.standard_normal(12)
    value = merit_slope(form, instance, vec, np.zeros(0), d_x, 1.0, TIGHT)
    expected = d_x @ objective_gradient(form, instance, vec, flows)
    assert value == pytest.approx(expected, rel=1e-14)


def test_line_search_accepts_full_newton_step():
    # quadratic merit (alpha - 1)^2: slope -2 at zero, minimum at alpha = 1
    evaluate = lambda alpha: (alpha - 1.0) ** 2
    alpha, value = line_search(evaluate, 1.0, -2.0, 1e-4, 0.5, 1e-8)
    assert alpha == 1.0
    assert value == 0.0


def test_line_search_backtracks_to_satisfying_step():
    m0 = 2.0
    evaluate = lambda alpha: m0 + alpha * (alpha - 0.6)
    alpha, value = line_search(evaluate, m0, -0.6, 1e-4, 0.5, 1e-8)
    assert alpha == 0.5
    assert value == pytest.approx(m0 - 0.05)
    assert value - m0 <= 1e-4 * alpha * (-0.6)


def test_line_search_rejects_nonnegative_slope_without_evaluating():
    calls = []

    def evaluate(alpha):
        calls.append(alpha)
        return 0.0

    with pytest.raises(StepTooSmall):
        line_search(evaluate, 1.0, 0.0, 1e-4, 0.5, 1e-8)
    assert calls == []


@pytest.mark.parametrize("slope", [math.nan, -math.inf])
def test_line_search_rejects_non_finite_slope_without_evaluating(slope):
    """Neither a NaN nor an infinite m'(0) can pass sufficient decrease."""
    calls = []

    def evaluate(alpha):
        calls.append(alpha)
        return 0.0

    with pytest.raises(StepTooSmall, match="not a descent direction"):
        line_search(evaluate, 1.0, slope, 1e-4, 0.5, 1e-8)
    assert calls == []


def test_line_search_gives_up_below_minimum_step():
    # descent too shallow to ever satisfy sufficient decrease
    evaluate = lambda alpha: 1.0 - 1e-9 * alpha
    with pytest.raises(StepTooSmall):
        line_search(evaluate, 1.0, -1.0, 1e-4, 0.5, 1e-8)


def test_line_search_skips_infinite_merit_values():
    m0 = 1.0
    evaluate = lambda alpha: np.inf if alpha > 0.3 else m0 - alpha
    alpha, _ = line_search(evaluate, m0, -1.0, 1e-4, 0.5, 1e-8)
    assert alpha == 0.25


def test_config_validation():
    with pytest.raises(ValueError):
        SqpConfig(delta=1.5)
    with pytest.raises(ValueError):
        SqpConfig(backtrack_factor=0.0)
    with pytest.raises(ValueError):
        SqpConfig(eps1=-1.0)
    for name in ("omega", "eps1", "eps2", "eps3"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                SqpConfig(**{name: value})
    with pytest.raises(ValueError):
        SqpConfig(hessian_variant="dense")
    with pytest.raises(ValueError):
        SqpConfig(kkt_method="schur")
    with pytest.raises(ValueError):
        SqpConfig(max_iter=-1)


def test_zero_iteration_budget_reports_s2_with_unchanged_point():
    instance = benchmark2_instance(n_segments=4)
    guess = initial_guess(instance, 4)
    report = run(
        Formulation.by_name("eq8"), instance, guess, SqpConfig(max_iter=0)
    )
    assert report.termination is Termination.S2_MAXIT
    assert report.nit == 0
    assert report.trace == ()
    np.testing.assert_array_equal(report.final_X.states, guess.states)
    np.testing.assert_array_equal(report.final_X.times, guess.times)


def test_start_at_exact_solution_converges_immediately():
    """The unperturbed equal split solves the endpoint-distance matching
    problem outright: gradient and constraints vanish at the start."""
    instance = benchmark2_instance(n_segments=5)
    exact = initial_guess(instance, 5, u=np.zeros(3), cfg=TIGHT_SQP.integrator)
    report = run(Formulation.by_name("eq5"), instance, exact, TIGHT_SQP)
    assert report.termination is Termination.S1_CONVERGED
    assert report.nit <= 2
    assert report.final_constraint_norm < 1e-8


def test_s1_tolerances_hold_at_the_reported_point(monkeypatch):
    """Also: the run hands the KKT ladder one saddle system per iteration,
    each with eq8's 14 multipliers."""
    from falsify.formulation import lagrangian_gradient

    instance = benchmark2_instance(n_segments=5)
    guess = initial_guess(instance, 5)
    cfg = SqpConfig()
    form = Formulation.by_name("eq8")
    seen = kkt_systems(monkeypatch)
    report = run(form, instance, guess, cfg)
    assert report.termination is Termination.S1_CONVERGED
    assert len(seen) == report.nit
    assert all(system.m2 == 14 for system in seen)
    assert report.final_constraint_norm < cfg.eps2
    flows = evaluate_segments(instance, report.final_X, cfg.integrator)
    grad = lagrangian_gradient(
        objective_gradient(form, instance, report.final_X, flows),
        constraint_jacobian(form.constraints, instance, report.final_X, flows),
        report.final_multipliers,
    )
    assert np.linalg.norm(grad) < cfg.eps1
    c_val = constraint_value(form.constraints, instance, report.final_X, flows)
    assert np.linalg.norm(c_val) < cfg.eps2


@pytest.mark.parametrize("name, m2", [("eq8", 14), ("eq13", 0)])
def test_final_multipliers_are_one_float_per_column_of_b(name, m2):
    instance = benchmark2_instance(n_segments=5)
    form = Formulation.by_name(name)
    assert constraint_dim(form.constraints, 3, 5) == m2
    report = run(form, instance, initial_guess(instance, 5), SqpConfig(max_iter=3))
    lam = report.final_multipliers
    assert isinstance(lam, np.ndarray)
    assert lam.dtype == np.float64 and lam.shape == (m2,)


def test_runs_are_deterministic():
    instance = benchmark2_instance(n_segments=5)
    guess = initial_guess(instance, 5)
    first = run(Formulation.by_name("eq9"), instance, guess, SqpConfig())
    second = run(Formulation.by_name("eq9"), instance, guess, SqpConfig())
    assert first.nit == second.nit
    assert first.termination == second.termination
    assert first.trace == second.trace
    np.testing.assert_array_equal(first.final_X.states, second.final_X.states)
    np.testing.assert_array_equal(first.final_X.times, second.final_X.times)


def test_incumbent_integration_failure_aborts():
    instance = ProblemInstance(
        blowup_system(), Ellipsoid.ball(np.zeros(1), 0.25), Ellipsoid.ball(np.ones(1), 0.25), 1
    )
    bad_guess = ShootingVector(np.array([[2.5]]), np.array([3.0]))
    report = run(Formulation.by_name("eq13"), instance, bad_guess, SqpConfig())
    assert report.termination is Termination.INTEGRATION_FAILURE
    assert report.nit == 0
    assert np.isnan(report.final_objective)


def test_singular_kkt_system_ends_the_run_with_its_iterations(monkeypatch):
    """A KKT system no rung steps from, at the third iteration, ends the run
    in SingularSystem instead of raising: the report holds the two
    iterations done, their trace and the incumbent point and multipliers,
    the bits of the same run stopped there by a budget of two."""
    instance = benchmark2_instance(n_segments=5)
    guess = initial_guess(instance, 5)
    form = Formulation.by_name("eq8")
    budget = run(form, instance, guess, SqpConfig(max_iter=2))
    assert budget.termination is Termination.S2_MAXIT
    singular_kkt_on_third_solve(monkeypatch)
    report = run(form, instance, guess, SqpConfig())
    assert report.termination.value == "SingularSystem"
    assert report.nit == len(report.trace) == 2
    assert_same_run(report, replace(budget, termination=Termination.SINGULAR_SYSTEM))
    attempt = report.last_attempt
    assert (attempt.kkt_rung, attempt.cg_iterations) == (None, 0)
    assert np.isnan([attempt.alpha_start, attempt.merit_zero, attempt.merit_slope]).all()
    assert budget.last_attempt is None


def test_s3_run_reports_its_failing_iteration(monkeypatch):
    """eq10 on the plain rotation with eps3 = 1e-3 ends in S3: the trace
    holds the accepted steps only, and ``last_attempt`` holds the rung, CG
    count, alpha_start, m(0) and m'(0) of the solve and search that failed,
    the last ones the run made."""
    instance, guess, form = bench_cell("benchmark3", 2, 5, "eq10")
    solves, searches = [], []

    def recording_solve_step(system, method):
        solves.append(_solve_step(system, method))
        return solves[-1]

    def recording_line_search(evaluate, merit_zero, slope, delta, beta, eps3, alpha_start):
        searches.append((alpha_start, merit_zero, slope))
        return line_search(evaluate, merit_zero, slope, delta, beta, eps3, alpha_start)

    monkeypatch.setattr(falsify.sqp, "_solve_step", recording_solve_step)
    monkeypatch.setattr(falsify.sqp, "line_search", recording_line_search)
    report = run(form, instance, guess, SqpConfig(eps3=1e-3))
    assert report.termination is Termination.S3_STEP_TOO_SMALL
    assert len(report.trace) == report.nit == len(solves) - 1 == len(searches) - 1
    solution, _, rung = solves[-1]
    assert report.last_attempt == Attempt(rung, solution.cg_iterations, *searches[-1])
    assert report.last_attempt.kkt_rung == "ppcg"


@pytest.mark.parametrize("variant", ["full", "blockdiag"])
@pytest.mark.parametrize("system_name, dim", [("benchmark2", 3), ("benchmark3", 4)])
def test_every_kkt_hessian_is_positive_definite(monkeypatch, system_name, dim, variant):
    """ppcg needs H positive definite on null(B^T); the BFGS variants keep
    the whole matrix positive definite, not only its diagonal blocks."""
    spec = BenchSpec(system_name, (dim,), (10,), Formulation.by_name("eq8"))
    instance = generate_instance(spec, dim, 10)
    seen = kkt_systems(monkeypatch)
    run(
        spec.formulation,
        instance,
        initial_guess(instance, 10),
        SqpConfig(hessian_variant=variant),
    )
    assert seen
    for system in seen:
        np.linalg.cholesky(system.hess.dense_copy())


def test_multiplier_free_formulations_have_empty_kkt_bottom(monkeypatch):
    instance = benchmark2_instance(n_segments=4)
    guess = initial_guess(instance, 4)
    seen = kkt_systems(monkeypatch)
    run(Formulation.by_name("eq13"), instance, guess, SqpConfig(max_iter=3))
    assert seen and all(system.jac.shape == (system.m1, 0) for system in seen)


def test_report_counts_the_skipped_bfgs_updates(monkeypatch):
    """blockdiag skips some block updates on this cell and still converges;
    the report holds every skip the run's updates counted."""
    skipped = []
    update = HessianApprox.update

    def counting(hess, s, y):
        before = hess.skip_count
        update(hess, s, y)
        skipped.append(hess.skip_count - before)
        return hess

    monkeypatch.setattr(HessianApprox, "update", counting)
    instance = benchmark2_instance(n_segments=5)
    report = run(
        Formulation.by_name("eq8"),
        instance,
        initial_guess(instance, 5),
        SqpConfig(hessian_variant="blockdiag"),
    )
    assert report.termination is Termination.S1_CONVERGED
    assert len(skipped) == report.nit
    assert report.hessian_skips == sum(skipped) > 0


@pytest.mark.parametrize("name", ["eq8", "eq13"])
def test_constraint_jacobian_is_built_once_per_iterate(monkeypatch, name):
    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        return wrapped

    for module in (falsify.sqp, falsify.formulation):
        monkeypatch.setattr(module, "constraint_jacobian", counting(module.constraint_jacobian))
    instance = benchmark2_instance(n_segments=5)
    report = run(
        Formulation.by_name(name), instance, initial_guess(instance, 5), SqpConfig(max_iter=30)
    )
    assert report.nit > 0
    assert len(calls) == report.nit + 1


@pytest.mark.parametrize("name", ["eq8", "eq13"])
def test_each_shooting_vector_is_evaluated_once(monkeypatch, name):
    """F and c are computed once per evaluated vector, the initial point and
    each trial; the accepted trial's values carry over to the next iterate."""
    calls = {"objective_value": 0, "constraint_value": 0}
    trials = []

    def counting(attr):
        original = getattr(falsify.sqp, attr)

        def wrapped(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        return wrapped

    def counting_line_search(evaluate, *args):
        def counted(alpha):
            trials.append(alpha)
            return evaluate(alpha)

        return line_search(counted, *args)

    for attr in calls:
        monkeypatch.setattr(falsify.sqp, attr, counting(attr))
    monkeypatch.setattr(falsify.sqp, "line_search", counting_line_search)
    instance = benchmark2_instance(n_segments=5)
    report = run(
        Formulation.by_name(name), instance, initial_guess(instance, 5), SqpConfig(max_iter=30)
    )
    assert report.nit > 0
    assert calls == {"objective_value": len(trials) + 1, "constraint_value": len(trials) + 1}


def test_trace_names_the_kkt_rung():
    instance = benchmark2_instance(n_segments=5)
    guess = initial_guess(instance, 5)
    for method in ("ppcg", "direct"):
        report = run(
            Formulation.by_name("eq8"), instance, guess, SqpConfig(kkt_method=method)
        )
        assert report.trace
        assert {record.kkt_rung for record in report.trace} == {method}


def test_trace_records_where_each_search_started():
    """On the backtrack workload's benchmark3 cell the duration bound cuts
    the start of some search below 1, and every accepted alpha lies on its
    search's ladder alpha_start * beta^j."""
    instance, guess, form = bench_cell("benchmark3", 4, 10, "eq5")
    report = run(form, instance, guess, SqpConfig())
    assert any(record.alpha_start < 1.0 for record in report.trace)
    for record in report.trace:
        assert record.alpha_start <= 1.0
        assert record.alpha in _step_lengths(record.alpha_start, 0.5, record.alpha)


def two_by_two_system(hess_diag, jac):
    hess = HessianApprox("full", 1, 1, np.diag(hess_diag)[None])
    return SaddleSystem(hess, sp.csc_matrix(jac), np.array([0.0, 1.0]), np.zeros(jac.shape[1]))


def test_indefinite_breakdown_falls_back_to_direct():
    system = two_by_two_system([1.0, -1.0], np.array([[1.0], [0.0]]))
    solution, alpha_start, rung = _solve_step(system, "ppcg")
    assert rung == "direct" and alpha_start == 1.0
    np.testing.assert_allclose(solution.d_x, [0.0, -1.0], atol=1e-14)


def test_singular_system_falls_back_to_least_squares():
    system = two_by_two_system([1.0, 1.0], np.array([[1.0, 1.0], [0.0, 0.0]]))
    for method in ("ppcg", "direct"):
        solution, alpha_start, rung = _solve_step(system, method)
        assert rung == "lstsq" and alpha_start == 0.5
        assert np.all(np.isfinite(solution.d_x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_ppcg_step_falls_back_to_a_finite_one():
    """H = diag(1e-310, 1) is finite, but CG on it overflows to [inf, nan]:
    ppcg breaks down, the direct solve finds the pivot ratio singular, and
    least squares drops the subnormal direction."""
    hess = HessianApprox("full", 1, 1, np.diag([1e-310, 1.0])[None])
    system = SaddleSystem(hess, sp.csc_matrix((2, 0)), np.ones(2), np.zeros(0))
    with pytest.raises(Breakdown, match="non-finite"):
        solve_ppcg(system)
    solution, alpha_start, rung = _solve_step(system, "ppcg")
    assert rung == "lstsq" and alpha_start == 0.5
    np.testing.assert_array_equal(solution.d_x, [0.0, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["ppcg", "direct"])
def test_non_finite_least_squares_step_raises_singular(method):
    """H = 1e-300 I with rhs 1e10: the direct solve overflows and fails its
    residual test, and least squares keeps both singular values and returns
    [inf, inf], so no rung produced a finite step."""
    hess = HessianApprox("full", 1, 1, 1e-300 * np.eye(2)[None])
    system = SaddleSystem(hess, sp.csc_matrix((2, 0)), np.full(2, 1e10), np.zeros(0))
    assert system.is_finite()
    with pytest.raises(SingularSystem, match="no KKT rung produced a finite step"):
        _solve_step(system, method)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_projection_with_blockdiag_hessian_breaks_down():
    """The same system on `blockdiag` blocks of 1e-300 I: the projector's
    G = H factors, but its first solve overflows, so projected CG breaks
    down instead of stopping on r^T g = inf with a zero step, and the
    ladder still ends with no finite step."""
    hess = HessianApprox("blockdiag", 1, 1, 1e-300 * np.eye(2)[None])
    system = SaddleSystem(hess, sp.csc_matrix((2, 0)), np.full(2, 1e10), np.zeros(0))
    with pytest.raises(Breakdown, match="non-finite"):
        solve_ppcg(system)
    with pytest.raises(SingularSystem, match="no KKT rung produced a finite step"):
        _solve_step(system, "ppcg")


@pytest.mark.parametrize("method", ["ppcg", "direct"])
def test_non_finite_system_raises_singular_before_any_rung(method):
    hess = HessianApprox("full", 2, 1, np.eye(3)[None])
    hess.blocks[0, 0, 0] = np.nan
    system = SaddleSystem(hess, sp.csc_matrix(np.ones((3, 1))), np.ones(3), np.ones(1))
    with pytest.raises(SingularSystem, match="non-finite saddle system"):
        _solve_step(system, method)


def test_large_well_conditioned_system_solves_directly():
    # m1 + m2 = 2100: the banded LU of the saddle matrix solves it (this
    # random B has no segment structure, so its band is nearly full), so the
    # ladder must not fall to least squares with a halved initial step
    m1, m2 = 1500, 600
    rng = np.random.default_rng(5)
    hess = HessianApprox("full", 2, 500, np.eye(m1)[None])
    jac = 2.0 * sp.eye(m1, m2) + 0.1 * sp.random(m1, m2, density=0.01, random_state=rng)
    system = SaddleSystem(hess, jac.tocsc(), rng.standard_normal(m1), rng.standard_normal(m2))
    solution, alpha_start, rung = _solve_step(system, "direct")
    assert rung == "direct" and alpha_start == 1.0
    assert system.residual(solution.d_x, solution.d_lambda) < 1e-10


def bench_cell(system_name, dim, n_segments, name):
    """Instance, initial guess and formulation of one `falsify bench` cell."""
    spec = BenchSpec(system_name, (dim,), (n_segments,), Formulation.by_name(name))
    instance = generate_instance(spec, dim, n_segments)
    return instance, initial_guess(instance, n_segments, spec.horizon), spec.formulation


def test_a_segment_of_zero_duration_starts_its_trials_fresh(monkeypatch):
    """Every trial batch starts from the incumbent's steps.  The duration
    bound cuts the first search of benchmark1 n2 N5 eq10 so that a
    segment's duration lands on 0, and that segment's recorded step is 0.
    The trials of the next search start it from the starting-step
    heuristic; a zero first step would underflow every trial into S3."""
    instance, guess, form = bench_cell("benchmark1", 2, 5, "eq10")
    first = run(form, instance, guess, SqpConfig(max_iter=1))
    assert 0.0 in first.final_X.times
    first_steps = []
    evaluate_many = falsify.sqp.evaluate_many

    def recording(instance, vecs, cfg=None, *, first_step):
        first_steps.append(first_step)
        return evaluate_many(instance, vecs, cfg, first_step=first_step)

    monkeypatch.setattr(falsify.sqp, "evaluate_many", recording)
    report = run(form, instance, guess, SqpConfig(max_iter=3))
    assert (report.nit, report.termination) == (3, Termination.S2_MAXIT)
    assert first_steps[0].tobytes() == evaluate_segments(instance, guess).step.tobytes()
    assert any(0.0 in steps for steps in first_steps)


def assert_same_run(ours, theirs):
    """Both reports hold the same bits: every TraceRecord field, the final
    vector and the multipliers."""
    assert (ours.nit, ours.termination) == (theirs.nit, theirs.termination)
    assert len(ours.trace) == len(theirs.trace)
    for a, b in zip(ours.trace, theirs.trace):
        for field in fields(a):
            left, right = getattr(a, field.name), getattr(b, field.name)
            assert np.asarray(left).tobytes() == np.asarray(right).tobytes(), field.name
    for attr in ("states", "times"):
        assert getattr(ours.final_X, attr).tobytes() == getattr(theirs.final_X, attr).tobytes()
    assert ours.final_multipliers.tobytes() == theirs.final_multipliers.tobytes()
    assert np.asarray(ours.final_objective).tobytes() == np.asarray(theirs.final_objective).tobytes()


def ladder_batches(monkeypatch):
    """The number of trial vectors of each batch `run` integrates through
    `evaluate_many` from now on."""
    sizes = []
    original = falsify.sqp.evaluate_many

    def recording(instance, vecs, cfg=None, **kwargs):
        sizes.append(len(vecs))
        return original(instance, vecs, cfg, **kwargs)

    monkeypatch.setattr(falsify.sqp, "evaluate_many", recording)
    return sizes


@pytest.mark.parametrize(
    "cell",
    [
        ("benchmark1", 4, 10, "eq5"),
        ("benchmark2", 3, 10, "eq5"),
        ("benchmark3", 4, 10, "eq5"),
        ("benchmark3", 2, 5, "eq10"),
    ],
    ids=lambda cell: "-".join(map(str, cell)),
)
def test_speculative_ladder_keeps_iterates_bitwise(monkeypatch, cell):
    """The backtrack workload's cells give the same bits with the alpha
    ladder as in their `_LADDER_LANES = 1` run, which integrates one trial
    vector per batch."""
    instance, guess, form = bench_cell(*cell)
    sizes = ladder_batches(monkeypatch)
    ladder = run(form, instance, guess, SqpConfig())
    assert sizes and max(sizes) > 1
    sizes.clear()
    monkeypatch.setattr(falsify.sqp, "_LADDER_LANES", 1)
    one_at_a_time = run(form, instance, guess, SqpConfig())
    assert sizes and set(sizes) == {1}
    assert_same_run(ladder, one_at_a_time)


def ladder_policy(steps, first, cap):
    """The batch sizes of a search with ``steps`` step lengths >= eps3 whose
    first batch is ``first`` vectors wide, each further one doubling up to
    ``cap``, until the step lengths run out."""
    sizes, width = [], first
    while steps > 0:
        sizes.append(min(width, steps))
        steps -= sizes[-1]
        width = min(2 * width, cap)
    return sizes


@pytest.mark.parametrize(
    "system_name, dim", [("benchmark1", 4), ("benchmark2", 3), ("benchmark3", 4)]
)
def test_ladder_batches_follow_the_width_policy(monkeypatch, system_name, dim):
    """On the backtrack workload's cells, search k's first batch holds
    min(trials of search k-1, _LADDER_LANES) vectors, 1 for the first
    search; each further batch of a search doubles up to that cap; and no
    search integrates a step length below eps3."""
    instance, guess, form = bench_cell(system_name, dim, 10, "eq5")
    cap = falsify.sqp._LADDER_LANES
    assert falsify.sqp._ladder_cap(instance.system, 10) == cap
    sizes = ladder_batches(monkeypatch)
    searches = []  # per line search: [step lengths >= eps3, trials, first batch index]

    def recording_line_search(evaluate, merit_zero, slope, delta, beta, eps3, alpha_start):
        steps = len(list(_step_lengths(alpha_start, beta, eps3)))
        searches.append([steps, 0, len(sizes)])

        def counted(alpha):
            searches[-1][1] += 1
            return evaluate(alpha)

        return line_search(counted, merit_zero, slope, delta, beta, eps3, alpha_start)

    monkeypatch.setattr(falsify.sqp, "line_search", recording_line_search)
    run(form, instance, guess, SqpConfig())
    ends = [start for _, _, start in searches[1:]] + [len(sizes)]
    first = 1
    for (steps, trials, start), end in zip(searches, ends):
        batches = sizes[start:end]
        assert batches and sum(batches) >= trials
        assert batches == ladder_policy(steps, first, cap)[: len(batches)]
        first = min(trials, cap)
    # the policy is exercised: some search starts wide, and some doubles
    assert any(sizes[start] > 1 for _, _, start in searches)
    assert any(end - start > 1 for (_, _, start), end in zip(searches, ends))


def test_failing_ladder_lane_reads_inf_without_a_second_integration(monkeypatch):
    """eq10 on the plain rotation with the integration of each line
    search's first trial made to fail: in a ladder batch that lane fails
    while the shorter trials finish.  Its merit reads +inf, no vector is
    integrated twice, and the run is the one-alpha-at-a-time run, in which
    the same trials fail."""
    instance, guess, form = bench_cell("benchmark3", 2, 5, "eq10")
    cfg = SqpConfig(max_iter=12)
    searches = []  # per line search: {alpha: merit}
    current = []  # the alpha being evaluated
    fresh = []  # [True] until the current search's first batch is integrated
    first_failed = []  # (search, alpha) of each batch whose first lane alone failed
    integrated = []  # packed bytes of every integrated vector

    def recording_line_search(evaluate, *args):
        values = {}
        searches.append(values)
        fresh[:] = [True]

        def recorded(alpha):
            current[:] = [alpha]
            values[alpha] = evaluate(alpha)
            return values[alpha]

        return line_search(recorded, *args)

    evaluate_one, evaluate_many = falsify.sqp.evaluate_segments, falsify.sqp.evaluate_many

    def recording_one(instance, vec, cfg=None):
        integrated.append(pack(vec).tobytes())
        return evaluate_one(instance, vec, cfg)

    def failing_first_trial(instance, vecs, cfg=None, **kwargs):
        integrated.extend(pack(vec).tobytes() for vec in vecs)
        outcomes = list(evaluate_many(instance, vecs, cfg, **kwargs))
        if fresh[0]:
            fresh[0] = False
            outcomes[0] = IntegrationFailure("step budget exhausted")
            failed = [isinstance(outcome, IntegrationFailure) for outcome in outcomes]
            if len(failed) > 1 and not any(failed[1:]):
                first_failed.append((len(searches) - 1, current[0]))
        return outcomes

    monkeypatch.setattr(falsify.sqp, "line_search", recording_line_search)
    monkeypatch.setattr(falsify.sqp, "evaluate_segments", recording_one)
    monkeypatch.setattr(falsify.sqp, "evaluate_many", failing_first_trial)
    ladder = run(form, instance, guess, cfg)
    assert first_failed
    for search, alpha in first_failed:
        assert alpha == next(iter(searches[search]))
        assert searches[search][alpha] == math.inf
    assert len(set(integrated)) == len(integrated)

    monkeypatch.setattr(falsify.sqp, "_LADDER_LANES", 1)
    assert_same_run(ladder, run(form, instance, guess, cfg))


def test_ladder_integrates_no_step_length_below_eps3(monkeypatch):
    """eq10 on the plain rotation with eps3 = 1e-3 ends in S3 after batches
    of several vectors: no search integrates more trial vectors than it has
    step lengths alpha_start * beta^j >= eps3, and the run is the
    one-alpha-at-a-time run."""
    instance, guess, form = bench_cell("benchmark3", 2, 5, "eq10")
    cfg = SqpConfig(eps3=1e-3)
    searches = []  # per line search: [step lengths >= eps3, vectors integrated]
    sizes = ladder_batches(monkeypatch)

    def recording_line_search(evaluate, merit_zero, slope, delta, beta, eps3, alpha_start):
        steps, alpha = 0, alpha_start
        while alpha >= eps3:
            steps, alpha = steps + 1, alpha * beta
        searches.append([steps, 0])
        done = len(sizes)

        def counted(alpha):
            value = evaluate(alpha)
            searches[-1][1] = sum(sizes[done:])
            return value

        return line_search(counted, merit_zero, slope, delta, beta, eps3, alpha_start)

    monkeypatch.setattr(falsify.sqp, "line_search", recording_line_search)
    ladder = run(form, instance, guess, cfg)
    assert ladder.termination is Termination.S3_STEP_TOO_SMALL
    assert max(sizes) > 1
    steps, integrated = searches[-1]
    assert integrated == steps > 1
    assert all(integrated <= steps for steps, integrated in searches)

    monkeypatch.setattr(falsify.sqp, "_LADDER_LANES", 1)
    assert_same_run(ladder, run(form, instance, guess, cfg))


def test_ladder_is_gated_off(monkeypatch):
    """A vector of (n + n^2) N = 8400 floats integrates one trial vector per
    batch although its searches backtrack."""
    instance, guess, form = bench_cell("benchmark3", 20, 20, "eq8")
    sizes = ladder_batches(monkeypatch)
    counts = []

    def counting_line_search(evaluate, *args):
        counts.append(0)

        def counted(alpha):
            counts[-1] += 1
            return evaluate(alpha)

        return line_search(counted, *args)

    monkeypatch.setattr(falsify.sqp, "line_search", counting_line_search)
    run(form, instance, guess, SqpConfig(max_iter=3, hessian_variant="blockdiag"))
    assert max(counts) > 1
    assert sizes == [1] * sum(counts)
