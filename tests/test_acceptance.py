"""Acceptance gate: one test per contract-level guarantee of the library.

Every test measures first, then prints a single summary line

    [acceptance] <label>: PASS/FAIL (<detail>)

before asserting, so the verdict for each guarantee is visible in one place
even when a later assertion message is long.  Tolerances here are the
contract values.  Each guarantee is checked here and nowhere else; the
per-module suites test what this module does not.
"""

import time

import numpy as np
from scipy.linalg import block_diag

from oracles import (
    FD_STEP,
    TIGHT,
    benchmark2_instance,
    curved_pair,
    kkt_systems,
    lagrangian_gradient_direct,
    merit_slope,
    random_flat_near_guess,
    random_vector_near_guess,
    reference_bfgs,
    relative_error,
    rotation_flow_matrix,
    trial,
    unpack_flat,
)

from falsify.bench import BenchSpec, generate_instance, initial_guess, run_table, verify
from falsify.formulation import (
    FORMULATION_NAMES,
    Formulation,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    lagrangian_gradient,
    objective_gradient,
    objective_value,
)
from falsify.hessian import init_identity
from falsify.integrate import flow, flow_with_sensitivity
from falsify.kkt import solve_direct, solve_ppcg
from falsify.shooting import (
    Ellipsoid,
    ProblemInstance,
    ShootingVector,
    evaluate_many,
    evaluate_segments,
    pack,
)
from falsify.sqp import SqpConfig, run
from falsify.systems import benchmark2, benchmark3


def announce(label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {label}: {verdict} ({detail})"
    print(line)
    assert ok, line


def _time_rows(n, n_segments):
    return [i * (n + 1) + n for i in range(n_segments)]


# ---------------------------------------------------------------------------
# derivative consistency


def test_derivative_consistency():
    """Analytic gradients/Jacobians of all nine formulations vs central FD.

    The flows at the 2d perturbed points are integrated in one batch per
    base point and shared across formulations, so the sweep over 20 points
    stays well inside the one-minute budget.
    """
    start = time.perf_counter()
    instance = benchmark2_instance(n_segments=5)
    n, n_seg = 3, 5
    d = n_seg * (n + 1)
    rng = np.random.default_rng(7)
    kinds = ("matching", "matching_boundary", "boundary")
    direct_forms = ("eq8", "eq9", "eq10", "eq11", "eq12", "eq13")

    worst = {"gradient": 0.0, "jacobian": 0.0, "lagrangian": 0.0}
    for _ in range(20):
        flat = random_flat_near_guess(instance, rng, scale=0.25)
        vec = unpack_flat(instance, flat)
        flows = evaluate_segments(instance, vec, TIGHT)
        perturbed = []
        for k in range(d):
            for sign in (1.0, -1.0):
                pert = flat.copy()
                pert[k] += sign * FD_STEP
                perturbed.append(unpack_flat(instance, pert))
        pert_flows = evaluate_many(instance, perturbed, TIGHT)
        # a lane's result does not depend on the batch it shares
        batched, single = pert_flows[0], evaluate_segments(instance, perturbed[0], TIGHT)
        assert np.array_equal(batched.end_state, single.end_state)
        assert np.array_equal(batched.sensitivity, single.sensitivity)
        pairs = list(zip(perturbed, pert_flows))
        cache = list(zip(pairs[0::2], pairs[1::2]))
        lams = {kind: rng.standard_normal(constraint_dim(kind, n, n_seg)) for kind in kinds}

        for name in FORMULATION_NAMES:
            form = Formulation.by_name(name)
            kind = form.constraints
            m2 = constraint_dim(kind, n, n_seg)
            grad_fd = np.zeros(d)
            jac_fd = np.zeros((d, m2))
            for k, ((vp, fp), (vm, fm)) in enumerate(cache):
                f_plus = objective_value(form, instance, vp, fp)
                f_minus = objective_value(form, instance, vm, fm)
                grad_fd[k] = (f_plus - f_minus) / (2.0 * FD_STEP)
                if m2:
                    c_plus = constraint_value(kind, instance, vp, fp)
                    c_minus = constraint_value(kind, instance, vm, fm)
                    jac_fd[k] = (c_plus - c_minus) / (2.0 * FD_STEP)

            grad = objective_gradient(form, instance, vec, flows)
            worst["gradient"] = max(worst["gradient"], relative_error(grad_fd, grad))

            jac = constraint_jacobian(kind, instance, vec, flows)
            if m2:
                worst["jacobian"] = max(
                    worst["jacobian"], relative_error(jac_fd, jac.toarray())
                )
            lam = lams.get(kind, np.zeros(0))

            # central differences are linear, so the FD Lagrangian gradient
            # is exactly grad_fd + jac_fd @ lam without extra integrations
            lag_fd = grad_fd + jac_fd @ lam
            lag = lagrangian_gradient(grad, jac, lam)
            worst["lagrangian"] = max(worst["lagrangian"], relative_error(lag_fd, lag))
            if name in direct_forms:
                direct = lagrangian_gradient_direct(form, instance, vec, lam, flows)
                worst["lagrangian"] = max(
                    worst["lagrangian"], relative_error(lag_fd, direct)
                )

    elapsed = time.perf_counter() - start
    ok = all(err < 1e-5 for err in worst.values()) and elapsed < 60.0
    announce(
        "derivative consistency",
        ok,
        f"max rel err gradient {worst['gradient']:.2e}, jacobian {worst['jacobian']:.2e}, "
        f"lagrangian {worst['lagrangian']:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# closed-form flow oracle


def test_closed_form_flow_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_state = worst_sens = 0.0
    for n in (2, 4, 10):
        system = benchmark3(n)
        for duration in np.linspace(-5.0, 5.0, 21):
            x0 = rng.standard_normal(n)
            exact_mat = rotation_flow_matrix(n, duration)
            end = flow(system, x0, duration)
            worst_state = max(worst_state, relative_error(end, exact_mat @ x0))
            result = flow_with_sensitivity(system, x0, duration)
            worst_state = max(
                worst_state, relative_error(result.end_state, exact_mat @ x0)
            )
            worst_sens = max(worst_sens, relative_error(result.sensitivity, exact_mat))
    elapsed = time.perf_counter() - start
    ok = worst_state < 1e-7 and worst_sens < 1e-7
    announce(
        "closed-form flow oracle",
        ok,
        f"max rel err state {worst_state:.2e}, sensitivity {worst_sens:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# constraint Jacobian rank


def _random_rank_instance(rng):
    """Random system/segment-count/state draw for the rank sweep."""
    if rng.uniform() < 0.4:
        system = benchmark2()
    else:
        system = benchmark3(int(rng.choice([2, 4, 6])))
    n_segments = int(rng.integers(2, 7))
    center = rng.uniform(0.5, 1.5, size=system.dim)
    horizon = float(rng.uniform(2.0, 5.0))
    end = flow(system, center, horizon)
    instance = ProblemInstance(
        system,
        Ellipsoid.ball(center, 0.25),
        Ellipsoid.ball(end, 0.25),
        n_segments,
    )
    vec = random_vector_near_guess(instance, rng, scale=0.2, horizon=horizon)
    return instance, vec


def _sigma_min(mat):
    return float(np.linalg.svd(mat.toarray(), compute_uv=False).min())


def test_constraint_jacobian_rank():
    rng = np.random.default_rng(23)

    # the matching Jacobian keeps full column rank on random instances
    matching_min = np.inf
    for _ in range(100):
        instance, vec = _random_rank_instance(rng)
        flows = evaluate_segments(instance, vec)
        jac = constraint_jacobian("matching", instance, vec, flows)
        matching_min = min(matching_min, _sigma_min(jac))

    # boundary-inclusive Jacobians: full rank away from the degenerate
    # geometry, rank-deficient exactly at it
    generic_min = np.inf
    for _ in range(20):
        instance, vec = _random_rank_instance(rng)
        flows = evaluate_segments(instance, vec)
        for kind in ("boundary", "matching_boundary"):
            generic_min = min(
                generic_min, _sigma_min(constraint_jacobian(kind, instance, vec, flows))
            )

    degenerate_max = 0.0
    instance, vec = _random_rank_instance(rng)
    # initial state at the init centre: the init-boundary column vanishes
    states = vec.states.copy()
    states[0] = instance.init.center
    at_center = ShootingVector(states, vec.times.copy())
    flows = evaluate_segments(instance, at_center)
    init_column_zero = True
    for kind in ("boundary", "matching_boundary"):
        jac = constraint_jacobian(kind, instance, at_center, flows)
        init_column_zero = init_column_zero and not jac[:, [0]].toarray().any()
        degenerate_max = max(degenerate_max, _sigma_min(jac))

    # unsafe centre placed exactly on the final flow image: the duration
    # column of the unsafe-boundary row vanishes
    flows = evaluate_segments(instance, vec)
    hit_center = ProblemInstance(
        instance.system,
        instance.init,
        Ellipsoid.ball(flows.end_state[-1], 0.25),
        instance.n_segments,
    )
    for kind in ("boundary", "matching_boundary"):
        degenerate_max = max(
            degenerate_max, _sigma_min(constraint_jacobian(kind, hit_center, vec, flows))
        )

    ok = (
        matching_min > 1e-10
        and generic_min > 1e-10
        and degenerate_max < 1e-12
        and init_column_zero
    )
    announce(
        "constraint jacobian rank",
        ok,
        f"matching sigma_min {matching_min:.2e} over 100 draws, generic boundary "
        f"{generic_min:.2e}, degenerate {degenerate_max:.2e}, "
        f"init column exactly zero {init_column_zero}",
    )


# ---------------------------------------------------------------------------
# KKT solver equivalence


def test_kkt_solver_equivalence(monkeypatch):
    harvested = kkt_systems(monkeypatch)
    for name, n_segments in (("eq8", 5), ("eq8", 10), ("eq9", 5), ("eq9", 10)):
        spec = BenchSpec("benchmark2", (3,), (n_segments,), Formulation.by_name(name))
        instance = generate_instance(spec, 3, n_segments)
        guess = initial_guess(instance, n_segments)
        run(spec.formulation, instance, guess, SqpConfig())
    assert len(harvested) >= 50, f"only harvested {len(harvested)} saddle systems"

    worst_dx = worst_constraint = 0.0
    for system in harvested[:50]:
        direct = solve_direct(system)
        iterative = solve_ppcg(system)
        worst_dx = max(worst_dx, relative_error(iterative.d_x, direct.d_x))
        scale = 1.0 + float(np.linalg.norm(system.rhs_bottom))
        # the solve is deterministic: the k-th CG iterate is the k-capped result
        for k in range(1, iterative.cg_iterations + 1):
            d_x = solve_ppcg(system, max_iter=k).d_x
            residual = float(np.linalg.norm(system.jac.T @ d_x - system.rhs_bottom))
            worst_constraint = max(worst_constraint, residual / scale)

    ok = worst_dx < 1e-7 and worst_constraint <= 1e-12
    announce(
        "kkt solver equivalence",
        ok,
        f"{len(harvested)} systems harvested, max d_x rel err {worst_dx:.2e}, "
        f"max scaled constraint residual {worst_constraint:.2e}",
    )


# ---------------------------------------------------------------------------
# structured BFGS


def _block_curved_pair(rng, n, n_segments):
    """Step and gradient difference whose curvature is block-aligned.

    The block-diagonal variant assumes the true Hessian shares its sparsity;
    drawing y = M s with a block-diagonal SPD map M reflects that and keeps
    every restricted update well defined.
    """
    width = n + 1
    s = rng.standard_normal(n_segments * width)
    blocks = []
    for _ in range(n_segments):
        m = rng.standard_normal((width, width))
        blocks.append(m @ m.T + width * np.eye(width))
    return s, block_diag(*blocks) @ s


def test_structured_bfgs():
    rng = np.random.default_rng(31)
    n, n_seg = 3, 5
    width = n + 1
    dim = n_seg * width

    # full variant reproduces the rank-two formula step by step, on
    # block-aligned pairs and then on densely coupled ones, skipping none
    full = init_identity("full", n, n_seg)
    pairs = [_block_curved_pair(rng, n, n_seg) for _ in range(50)]
    dense_rng = np.random.default_rng(101)
    pairs += [curved_pair(dense_rng, dim) for _ in range(25)]
    worst_formula = 0.0
    for s, y in pairs:
        expected = reference_bfgs(full.dense_copy(), s, y)
        full.update(s, y)
        err = np.abs(full.dense_copy() - expected)
        denom = np.maximum(1.0, np.abs(expected))
        worst_formula = max(worst_formula, float((err / denom).max()))

    # block-diagonal variant: exact zero pattern and SPD blocks at every step
    mask = np.kron(np.eye(n_seg, dtype=bool), np.ones((width, width), dtype=bool))
    structure_ok = spd_ok = True
    approx = init_identity("blockdiag", n, n_seg)
    for _ in range(50):
        s, y = _block_curved_pair(rng, n, n_seg)
        approx.update(s, y)
        dense = approx.dense_copy()
        if np.any(dense[~mask] != 0.0):
            structure_ok = False
        for i in range(n_seg):
            block = dense[i * width : (i + 1) * width, i * width : (i + 1) * width]
            if np.linalg.eigvalsh(block).min() <= 0.0:
                spd_ok = False

    # non-positive curvature leaves every variant bitwise unchanged
    skip_ok = True
    for variant in ("full", "blockdiag"):
        approx = init_identity(variant, n, n_seg)
        s, y = _block_curved_pair(rng, n, n_seg)
        approx.update(s, y)
        before = approx.dense_copy()
        skips_before = approx.skip_count
        step = rng.standard_normal(dim)
        approx.update(step, -step)
        if not np.array_equal(approx.dense_copy(), before):
            skip_ok = False
        if approx.skip_count <= skips_before:
            skip_ok = False

    ok = worst_formula < 1e-14 and full.skip_count == 0 and structure_ok and spd_ok and skip_ok
    announce(
        "structured bfgs updates",
        ok,
        f"full-formula max elementwise err {worst_formula:.2e} "
        f"({full.skip_count} skips), zeros exact {structure_ok}, "
        f"blocks SPD {spd_ok}, skip bitwise {skip_ok}",
    )


# ---------------------------------------------------------------------------
# merit / line-search contract


def test_merit_line_search_contract():
    # every accepted step in live runs satisfies the decrease inequality
    # with the very numbers the solver logged
    delta = SqpConfig().delta
    checked_steps = 0
    rule_ok = True
    runs = (
        ("eq8", 5, "full"),
        ("eq9", 10, "full"),
        ("eq5", 5, "full"),
        ("eq11", 20, "full"),
        ("eq13", 5, "full"),
    )
    for name, n_segments, variant in runs:
        spec = BenchSpec("benchmark2", (3,), (n_segments,), Formulation.by_name(name))
        instance = generate_instance(spec, 3, n_segments)
        guess = initial_guess(instance, n_segments)
        report = run(spec.formulation, instance, guess, SqpConfig(hessian_variant=variant))
        for rec in report.trace:
            checked_steps += 1
            if not (
                rec.merit_slope < 0.0
                and 0.0 < rec.alpha <= 1.0
                and rec.merit - rec.merit_zero <= delta * rec.alpha * rec.merit_slope
            ):
                rule_ok = False

    # the directional derivative matches finite differences of the merit
    instance = benchmark2_instance(n_segments=5)
    rng = np.random.default_rng(43)
    worst_slope = 0.0
    for name in ("eq5", "eq8", "eq9", "eq10", "eq13"):
        form = Formulation.by_name(name)
        m2 = constraint_dim(form.constraints, 3, 5)
        vec = random_vector_near_guess(instance, rng, scale=0.2)
        lam = rng.standard_normal(m2)
        d_x = rng.standard_normal(20)
        lam_full = lam + rng.standard_normal(m2)
        slope = merit_slope(form, instance, vec, lam_full, d_x, 1.0, TIGHT)
        plus, _ = trial(form, instance, pack(vec), d_x, FD_STEP, lam_full, 1.0, TIGHT)
        minus, _ = trial(form, instance, pack(vec), d_x, -FD_STEP, lam_full, 1.0, TIGHT)
        fd_slope = (plus - minus) / (2.0 * FD_STEP)
        worst_slope = max(worst_slope, abs(slope - fd_slope) / max(1.0, abs(fd_slope)))

    ok = rule_ok and checked_steps > 0 and worst_slope < 1e-5
    announce(
        "merit line-search contract",
        ok,
        f"{checked_steps} accepted steps re-checked, decrease rule {rule_ok}, "
        f"max slope rel err {worst_slope:.2e}",
    )


# ---------------------------------------------------------------------------
# end-to-end success patterns


def _warm_kernels():
    for system in (benchmark2(), benchmark3(2)):
        x0 = np.ones(system.dim)
        flow(system, x0, 0.5)
        flow_with_sensitivity(system, x0, 0.5)


def test_end_to_end_success_patterns():
    _warm_kernels()
    details = []
    ok = True

    # rotation system, duration-regularized boundary-value formulation,
    # block-diagonal updates: every cell yields a verified trajectory (never
    # an F), each run under a minute; iteration counts are not a target
    slowest = 0.0
    statuses = []
    for n in (4, 10):
        for n_segments in (5, 10):
            spec = BenchSpec("benchmark3", (n,), (n_segments,), Formulation.by_name("eq8"))
            start = time.perf_counter()
            (row,) = run_table(spec, SqpConfig(hessian_variant="blockdiag"))
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            statuses.append(row.status)
            instance = generate_instance(spec, n, n_segments)
            recheck = verify(instance, row.report.final_X)
            if not (row.status != "F" and recheck.ok and elapsed < 60.0):
                ok = False
                details.append(f"benchmark3 n={n} N={n_segments} -> {row.status} in {elapsed:.1f}s")
    details.append(
        f"benchmark3 eq8 blockdiag 4/4 verified (statuses {'/'.join(statuses)}), "
        f"slowest {slowest:.1f}s"
    )

    # nonlinear system, both regularized formulations, moderate segment counts
    for name in ("eq8", "eq9"):
        for n_segments in (5, 10):
            spec = BenchSpec("benchmark2", (3,), (n_segments,), Formulation.by_name(name))
            (row,) = run_table(spec)
            instance = generate_instance(spec, 3, n_segments)
            recheck = verify(instance, row.report.final_X)
            if not (row.status == "1" and recheck.ok):
                ok = False
                details.append(f"benchmark2 {name} N={n_segments} -> {row.status}")
    details.append("benchmark2 eq8/eq9 4/4 verified")

    # the gap-objective formulation with difference regularization degrades
    # at high segment counts: the run completes and verification flags it.
    # Not on every count: under the line search's duration bound, N = 20 and
    # N = 30 converge to ends that verify.
    for n_segments in (10, 15, 25):
        spec = BenchSpec("benchmark2", (3,), (n_segments,), Formulation.by_name("eq11"))
        (row,) = run_table(spec)
        if row.status != "F":
            ok = False
            details.append(f"benchmark2 eq11 N={n_segments} -> {row.status}, expected F")
        else:
            details.append(f"benchmark2 eq11 N={n_segments} flagged F ({', '.join(row.reasons)})")

    announce("end-to-end success patterns", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# duration-gradient degeneracy


def test_duration_gradient_degeneracy():
    """With matching residuals zeroed, the duration rows of the closed-form
    Lagrangian gradient collapse to exactly t_i for the two formulations that
    pair the squared-duration regularizer with no matching constraints —
    stationarity then drives every segment length to zero, which is why
    those formulations are rejected for trajectory search.
    """
    instance = benchmark2_instance(n_segments=5)
    rng = np.random.default_rng(53)
    rows = _time_rows(3, 5)
    exact = True
    for name in ("eq10", "eq13"):
        form = Formulation.by_name(name)
        m2 = constraint_dim(form.constraints, 3, 5)
        for _ in range(5):
            vec = random_vector_near_guess(instance, rng, scale=0.3)
            flows = evaluate_segments(instance, vec)
            lam = rng.standard_normal(m2)
            # the same flows from starts that match them: every gap is exactly 0
            matched = ShootingVector(
                np.concatenate([vec.states[:1], flows.end_state[:-1]]), vec.times
            )
            grad = lagrangian_gradient_direct(form, instance, matched, lam, flows)
            if not np.array_equal(grad[rows[:-1]], vec.times[:-1]):
                exact = False
            # sanity: with the gaps of vec the rows carry the flow terms
            plain = lagrangian_gradient_direct(form, instance, vec, lam, flows)
            if np.array_equal(plain[rows[:-1]], vec.times[:-1]):
                exact = False
    announce(
        "duration gradient degeneracy",
        exact,
        "eq10/eq13 duration rows equal t_i exactly once matching residuals vanish",
    )


# ---------------------------------------------------------------------------
# verification semantics


def test_verification_semantics():
    spec = BenchSpec("benchmark3", (4,), (5,), Formulation.by_name("eq8"))
    instance = generate_instance(spec, 4, 5)
    dt = 1.0
    states = np.stack(
        [rotation_flow_matrix(4, i * dt) @ instance.init.center for i in range(5)]
    )
    times = np.full(5, dt)
    exact = ShootingVector(states, times)

    accepted = verify(instance, exact)

    negative = ShootingVector(states, np.array([1.0, 1.0, -0.1, 2.1, 1.0]))
    flagged_negative = verify(instance, negative)

    # initial state pushed just past the acceptance band of the init ball
    off_init = states.copy()
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    off_init[0] = instance.init.center + 0.25 * (1.0 + 2e-4) * direction
    flagged_init = verify(instance, ShootingVector(off_init, times))

    # stretching the last segment rotates the endpoint away from the
    # unsafe ball while start and durations stay legal
    long_tail = ShootingVector(states, np.array([1.0, 1.0, 1.0, 1.0, 1.5]))
    flagged_unsafe = verify(instance, long_tail)

    # a violation within the tolerance band is still accepted
    near_init = states.copy()
    near_init[0] = instance.init.center + 0.25 * (1.0 + 0.5e-4) * direction
    accepted_band = verify(instance, ShootingVector(near_init, times))

    ok = (
        accepted.ok
        and accepted_band.ok
        and not flagged_negative.ok
        and "negative_length" in flagged_negative.reasons
        and not flagged_init.ok
        and "init_boundary" in flagged_init.reasons
        and not flagged_unsafe.ok
        and "unsafe_boundary" in flagged_unsafe.reasons
    )
    announce(
        "verification semantics",
        ok,
        f"exact split accepted (distances {accepted.init_distance:.1e}/"
        f"{accepted.unsafe_distance:.3f}), negative length / boundary breaches flagged",
    )
