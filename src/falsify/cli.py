"""Command-line front end: single solves, benchmark tables, self-checks.

Configuration comes from an INI file with sections [problem],
[formulation], [sqp], [output]; a handful of flags override the most
commonly swept fields.  Formulations are addressed by their short names
("eq5" ... "eq13").  Exit codes: 0 success (for `solve`: converged and
verified), 1 converged but unverified, 2 failure, 64 configuration error.
"""

import argparse
import configparser
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bench import (
    SYSTEM_NAMES,
    BenchSpec,
    dump_trajectory,
    emit_csv,
    generate_instance,
    initial_guess,
    run_table,
    verify,
)
from .formulation import (
    FORMULATION_NAMES,
    Formulation,
    Multipliers,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    lagrangian_gradient,
    lagrangian_gradient_direct,
    objective_gradient,
    objective_value,
)
from .hessian import VARIANTS, init_identity
from .integrate import IntegrationFailure, IntegratorConfig
from .kkt import Breakdown, SaddleSystem, SingularSystem, solve_direct, solve_ppcg
from .shooting import evaluate_many, evaluate_segments, pack, unpack
from .sqp import KKT_METHODS, SqpConfig, Termination, run

logger = logging.getLogger("falsify")

__all__ = ["ConfigError", "RunConfig", "load_config", "cmd_solve", "cmd_bench", "cmd_check", "main"]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


_KNOWN_KEYS = {
    "problem": ("system", "dim", "segments", "horizon", "radius", "eps4"),
    "formulation": ("name", "objective", "regularizer", "constraints"),
    "sqp": (
        "omega",
        "delta",
        "eps1",
        "eps2",
        "eps3",
        "max_iter",
        "backtrack_factor",
        "hessian",
        "kkt",
        "rel_tol",
        "abs_tol",
        "max_steps",
    ),
    "output": ("report", "table", "trace", "dump_trajectory"),
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    system: str = "benchmark2"
    dims: tuple = (3,)
    segments: tuple = (5,)
    horizon: float = 5.0
    radius: float = 0.25
    eps4: float = 1e-4
    formulation: Formulation = field(default_factory=lambda: Formulation.by_name("eq8"))
    sqp: SqpConfig = field(default_factory=SqpConfig)
    report_path: Path = Path("report.json")
    table_path: Path = Path("table.csv")
    trace_path: Path = None
    dump_path: Path = None
    jobs: int = 1


def _convert(section, key, text, kind):
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is tuple:
            return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"invalid value for {section}.{key}: {text!r}") from None
    return text


def load_config(args):
    """Resolve INI file plus flag overrides into a RunConfig (or ConfigError)."""
    parser = configparser.ConfigParser()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown config key '{key}' in section [{section}]")

    def fetch(section, key, default, kind=str):
        if parser.has_option(section, key):
            return _convert(section, key, parser.get(section, key), kind)
        return default

    cfg = RunConfig()
    cfg.system = fetch("problem", "system", cfg.system)
    if cfg.system not in SYSTEM_NAMES:
        raise ConfigError(f"unknown value for problem.system: {cfg.system!r}")
    default_dim = 3 if cfg.system == "benchmark2" else 2
    cfg.dims = fetch("problem", "dim", (default_dim,), tuple)
    cfg.segments = fetch("problem", "segments", cfg.segments, tuple)
    cfg.horizon = fetch("problem", "horizon", cfg.horizon, float)
    cfg.radius = fetch("problem", "radius", cfg.radius, float)
    cfg.eps4 = fetch("problem", "eps4", cfg.eps4, float)

    name = args.formulation or fetch("formulation", "name", None)
    parts = {
        key: fetch("formulation", key, None)
        for key in ("objective", "regularizer", "constraints")
    }
    try:
        if name is not None:
            cfg.formulation = Formulation.by_name(name)
        elif any(value is not None for value in parts.values()):
            cfg.formulation = Formulation.experimental(
                parts["objective"] or "zero",
                parts["regularizer"] or "none",
                parts["constraints"] or "none",
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    integrator_kwargs = {}
    for key, target in (("rel_tol", "rel_tol"), ("abs_tol", "abs_tol"), ("max_steps", "max_steps")):
        value = fetch("sqp", key, None, int if key == "max_steps" else float)
        if value is not None:
            integrator_kwargs[target] = value
    sqp_kwargs = {}
    for key, kind in (
        ("omega", float),
        ("delta", float),
        ("eps1", float),
        ("eps2", float),
        ("eps3", float),
        ("max_iter", int),
        ("backtrack_factor", float),
    ):
        value = fetch("sqp", key, None, kind)
        if value is not None:
            sqp_kwargs[key] = value
    hessian = args.hessian or fetch("sqp", "hessian", None)
    kkt = args.kkt or fetch("sqp", "kkt", None)
    if hessian is not None:
        sqp_kwargs["hessian_variant"] = hessian
    if kkt is not None:
        sqp_kwargs["kkt_method"] = kkt
    try:
        if integrator_kwargs:
            sqp_kwargs["integrator"] = IntegratorConfig(**integrator_kwargs)
        cfg.sqp = SqpConfig(**sqp_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg.report_path = Path(fetch("output", "report", cfg.report_path))
    cfg.table_path = Path(fetch("output", "table", cfg.table_path))
    trace = args.trace or fetch("output", "trace", None)
    dump = args.dump_trajectory or fetch("output", "dump_trajectory", None)
    cfg.trace_path = Path(trace) if trace else None
    cfg.dump_path = Path(dump) if dump else None
    cfg.jobs = args.jobs
    if cfg.jobs < 1:
        raise ConfigError(f"invalid value for --jobs: {cfg.jobs}")
    return cfg


def _single_cell(cfg):
    if len(cfg.dims) != 1 or len(cfg.segments) != 1:
        raise ConfigError("solve/check need exactly one problem.dim and one problem.segments value")
    return cfg.dims[0], cfg.segments[0]


def _bench_spec(cfg):
    return BenchSpec(
        cfg.system,
        cfg.dims,
        cfg.segments,
        cfg.formulation,
        hessian_variant=cfg.sqp.hessian_variant,
        kkt_method=cfg.sqp.kkt_method,
        horizon=cfg.horizon,
        radius=cfg.radius,
        eps4=cfg.eps4,
        max_iter=cfg.sqp.max_iter,
    )


def _write_trace(report, path):
    with open(path, "w", newline="") as sink:
        sink.write("# iter objective constraint_norm gradient_norm alpha merit cg_iterations\n")
        for rec in report.trace:
            sink.write(
                f"{rec.iteration} {rec.objective:.17g} {rec.constraint_norm:.17g} "
                f"{rec.gradient_norm:.17g} {rec.alpha:.17g} {rec.merit:.17g} {rec.cg_iterations}\n"
            )


def _write_report(cfg, dim, n_segments, report, checked, path):
    vec = report.final_X
    payload = {
        "system": cfg.system,
        "dim": dim,
        "segments": n_segments,
        "formulation": cfg.formulation.name,
        "objective_kind": cfg.formulation.objective,
        "regularizer": cfg.formulation.regularizer,
        "constraints": cfg.formulation.constraints,
        "hessian": cfg.sqp.hessian_variant,
        "kkt": cfg.sqp.kkt_method,
        "nit": report.nit,
        "termination": report.termination.value,
        "final_objective": report.final_objective,
        "final_constraint_norm": report.final_constraint_norm,
        "verified": checked.ok if checked else False,
        "verify_reasons": list(checked.reasons) if checked else ["integration_failure"],
        "init_distance": checked.init_distance if checked else None,
        "unsafe_distance": checked.unsafe_distance if checked else None,
        "final_times": [float(t) for t in vec.times],
        "final_states": [[float(v) for v in row] for row in vec.states],
    }
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", newline="") as sink:
        sink.write(f"# falsify report {stamp}\n")
        sink.write(json.dumps(payload, indent=2, sort_keys=True))
        sink.write("\n")


def cmd_solve(cfg):
    dim, n_segments = _single_cell(cfg)
    try:
        instance = generate_instance(_bench_spec(cfg), dim, n_segments)
        guess = initial_guess(instance, n_segments, cfg.horizon)
    except IntegrationFailure as exc:
        print(f"instance generation failed: {exc}", file=sys.stderr)
        return 2
    logger.info("solving %s dim=%d N=%d with %s", cfg.system, dim, n_segments, cfg.formulation.name)
    report = run(cfg.formulation, instance, guess, cfg.sqp)
    checked = None
    if report.termination is not Termination.INTEGRATION_FAILURE:
        checked = verify(instance, report.final_X, cfg.eps4)
    _write_report(cfg, dim, n_segments, report, checked, cfg.report_path)
    if cfg.trace_path:
        _write_trace(report, cfg.trace_path)
    if cfg.dump_path and checked is not None:
        dump_trajectory(instance, report.final_X, cfg.dump_path)
    verdict = "verified" if checked and checked.ok else "not verified"
    print(
        f"{cfg.formulation.name} on {cfg.system} (n={dim}, N={n_segments}): "
        f"{report.termination.value} after {report.nit} iterations, {verdict}"
    )
    print(f"report written to {cfg.report_path}")
    if report.termination is not Termination.S1_CONVERGED:
        return 2
    return 0 if checked.ok else 1


def cmd_bench(cfg):
    spec = _bench_spec(cfg)
    rows = run_table(spec, jobs=cfg.jobs, sqp=cfg.sqp)
    emit_csv(rows, cfg.table_path)
    emit_csv(rows, sys.stdout)
    print(f"table written to {cfg.table_path}")
    return 0


def cmd_check(cfg):
    """Derivative, rank, and solver cross-checks on the configured instance."""
    dim, n_segments = _single_cell(cfg)
    spec = _bench_spec(cfg)
    instance = generate_instance(spec, dim, n_segments)
    guess = initial_guess(instance, n_segments, cfg.horizon)
    form = cfg.formulation
    n = instance.system.dim
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    flat = pack(guess)
    kind = form.constraints
    m2 = constraint_dim(kind, n, n_segments)
    rng = np.random.default_rng(2718)
    results = []

    def record(name, error, tol):
        results.append((name, f"max_error={error:.3e} tolerance={tol:.1e}", error < tol))

    flows = evaluate_segments(instance, guess, tight)
    # every central-difference point, integrated in one batch and shared by
    # the gradient and the Jacobian check
    steps = 1e-4 * np.eye(flat.size)
    points = [unpack(p, n, n_segments) for p in np.concatenate([flat + steps, flat - steps])]
    pairs = list(zip(points, evaluate_many(instance, points, tight)))
    plus, minus = pairs[: flat.size], pairs[flat.size :]

    analytic = objective_gradient(form, instance, guess, flows)
    fd = np.array(
        [
            (objective_value(form, instance, *p) - objective_value(form, instance, *m)) / (2.0 * 1e-4)
            for p, m in zip(plus, minus)
        ]
    )
    scale = max(1.0, float(np.linalg.norm(analytic)))
    record("objective_gradient_fd", float(np.linalg.norm(analytic - fd)) / scale, 1e-5)

    if m2:
        jac = constraint_jacobian(kind, instance, guess, flows).toarray()
        fd_jac = np.array(
            [
                (constraint_value(kind, instance, *p) - constraint_value(kind, instance, *m)) / 2e-4
                for p, m in zip(plus, minus)
            ]
        )
        scale = max(1.0, float(np.linalg.norm(jac)))
        record("constraint_jacobian_fd", float(np.linalg.norm(jac - fd_jac)) / scale, 1e-5)

        sigma_min = float(np.linalg.svd(jac, compute_uv=False).min())
        results.append(
            ("constraint_rank", f"sigma_min={sigma_min:.3e} threshold=1.0e-10", sigma_min > 1e-10)
        )

        lam = Multipliers(kind, rng.standard_normal(m2), n, n_segments)
        assembled = lagrangian_gradient(form, instance, guess, lam, flows)
        try:
            direct = lagrangian_gradient_direct(form, instance, guess, lam, flows)
            record(
                "lagrangian_gradient_closed_form",
                float(np.max(np.abs(assembled - direct))),
                1e-10,
            )
        except ValueError:
            pass

        hess = init_identity(cfg.sqp.hessian_variant, n, n_segments)
        c_val = constraint_value(kind, instance, guess, flows)
        system = SaddleSystem(hess, constraint_jacobian(kind, instance, guess, flows), -assembled, -c_val)
        try:
            iterative = solve_ppcg(system)
            direct_sol = solve_direct(system)
            denom = max(1e-30, float(np.linalg.norm(direct_sol.d_x)))
            record(
                "kkt_ppcg_vs_direct",
                float(np.linalg.norm(iterative.d_x - direct_sol.d_x)) / denom,
                1e-8,
            )
        except (Breakdown, SingularSystem) as exc:
            record(f"kkt_ppcg_vs_direct ({exc})", np.inf, 1e-8)

    all_ok = True
    for name, detail, ok in results:
        all_ok &= ok
        print(f"{name}: {detail} {'PASS' if ok else 'FAIL'}")
    print("all checks passed" if all_ok else "some checks FAILED")
    return 0 if all_ok else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="falsify",
        description="Search for system trajectories from an initial set into an unsafe set.",
    )
    parser.add_argument("command", choices=("solve", "bench", "check"))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--formulation", choices=FORMULATION_NAMES, help="named problem formulation")
    parser.add_argument("--hessian", choices=VARIANTS, help="quasi-Newton structure")
    parser.add_argument("--kkt", choices=KKT_METHODS, help="saddle-point solver")
    parser.add_argument("--trace", help="write per-iteration records to this file")
    parser.add_argument("--dump-trajectory", help="write the final trajectory samples to this file")
    parser.add_argument("--jobs", type=int, default=1, help="bench cells to run concurrently")
    args = parser.parse_args(argv)

    level = os.environ.get("FALSIFY_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args)
        command = {"solve": cmd_solve, "bench": cmd_bench, "check": cmd_check}[args.command]
        return command(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 64
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
