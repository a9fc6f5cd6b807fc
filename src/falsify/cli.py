"""Command-line front end: single solves, benchmark tables, self-checks.

Configuration comes from an INI file with sections [problem],
[formulation], [sqp], [output]; a handful of flags override the most
commonly swept fields.  [problem] and [formulation] resolve to one
BenchSpec, [sqp] to one SqpConfig; their keys are the fields of BenchSpec,
Formulation, SqpConfig and IntegratorConfig (INI names in ``_INI_KEY``
where the two differ).  Formulations are addressed by their short names
("eq5" ... "eq13").  Exit codes: 0 success (for `solve`: converged and
verified), 1 converged but unverified, 2 failure, 64 configuration error.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .bench import (
    BenchSpec,
    dump_trajectory,
    emit_csv,
    generate_instance,
    initial_guess,
    run_table,
    solve_instance,
)
from .formulation import (
    FORMULATION_NAMES,
    Formulation,
    constraint_dim,
    constraint_jacobian,
    constraint_value,
    lagrangian_gradient,
    objective_gradient,
    objective_value,
)
from .hessian import VARIANTS, init_identity
from .integrate import IntegrationFailure, IntegratorConfig
from .kkt import Breakdown, SaddleSystem, SingularSystem, solve_direct, solve_ppcg
from .shooting import DegenerateInstance, evaluate_many, evaluate_segments, pack, unpack
from .sqp import KKT_METHODS, SqpConfig, Termination

__all__ = ["ConfigError", "RunConfig", "load_config", "cmd_solve", "cmd_bench", "cmd_check", "main"]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


# field -> INI key, where the two differ
_INI_KEY = {
    "dims": "dim",
    "segment_counts": "segments",
    "hessian_variant": "hessian",
    "kkt_method": "kkt",
}


def _keys(cls, *skip):
    """INI key -> field, for every field of the dataclass ``cls`` not in ``skip``."""
    return {_INI_KEY.get(f.name, f.name): f for f in fields(cls) if f.name not in skip}


_PROBLEM_KEYS = _keys(BenchSpec, "formulation")
_PART_KEYS = _keys(Formulation, "name")
_SOLVER_KEYS = _keys(SqpConfig, "integrator")
_INTEGRATOR_KEYS = _keys(IntegratorConfig)

_KNOWN_KEYS = {
    "problem": _PROBLEM_KEYS,
    "formulation": _keys(Formulation),
    "sqp": {**_SOLVER_KEYS, **_INTEGRATOR_KEYS},
    "output": ("report", "table", "trace", "dump_trajectory"),
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one CLI invocation: the problem,
    the solver settings and where the outputs go."""

    spec: BenchSpec
    sqp: SqpConfig
    report_path: Path = Path("report.json")
    table_path: Path = Path("table.csv")
    trace_path: Path = None
    dump_path: Path = None


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
                # `%(key)s` keeps its meaning; a value it cannot expand is
                # a configuration error, found here before any value is read
                try:
                    parser.get(section, key)
                except configparser.InterpolationError as exc:
                    raise ConfigError(
                        f"invalid value for {section}.{key}: {exc.message}"
                    ) from None

    def fetch(section, key, default=None):
        return parser.get(section, key, fallback=default)

    def given(section, keys):
        """field -> value of each of ``keys`` set in ``section``, converted
        by its field's type."""
        return {
            f.name: _convert(section, key, parser.get(section, key), f.type)
            for key, f in keys.items()
            if parser.has_option(section, key)
        }

    # the --formulation flag overrides the whole section, its parts too
    name = args.formulation or fetch("formulation", "name")
    parts = {} if args.formulation else given("formulation", _PART_KEYS)
    if name is not None and parts:
        raise ConfigError(
            f"[formulation] sets name and {', '.join(parts)}: give a name or parts, not both"
        )
    try:
        if parts:
            # an empty part takes its default, as an unset one does
            formulation = Formulation(**{key: value for key, value in parts.items() if value})
        else:
            formulation = Formulation.by_name(name or "eq8")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # one BenchSpec is the whole [problem]: its construction rejects every
    # value no instance can be built from, before any solve
    problem = given("problem", _PROBLEM_KEYS)
    system = problem.setdefault("system", "benchmark2")
    problem.setdefault("dims", (3 if system == "benchmark2" else 2,))
    problem.setdefault("segment_counts", (5,))
    try:
        spec = BenchSpec(formulation=formulation, **problem)
    except ValueError as exc:
        raise ConfigError(f"invalid [problem] value: {exc}") from exc

    solver = given("sqp", _SOLVER_KEYS)
    flags = {"hessian_variant": args.hessian, "kkt_method": args.kkt}
    solver.update((field, flag) for field, flag in flags.items() if flag)
    try:
        sqp = SqpConfig(integrator=IntegratorConfig(**given("sqp", _INTEGRATOR_KEYS)), **solver)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trace = args.trace or fetch("output", "trace")
    dump = args.dump_trajectory or fetch("output", "dump_trajectory")
    cfg = RunConfig(
        spec,
        sqp,
        report_path=Path(fetch("output", "report", RunConfig.report_path)),
        table_path=Path(fetch("output", "table", RunConfig.table_path)),
        trace_path=Path(trace) if trace else None,
        dump_path=Path(dump) if dump else None,
    )
    # an output that cannot be written must stop the run before its solve
    outputs = {
        "report": cfg.report_path,
        "table": cfg.table_path,
        "trace": cfg.trace_path,
        "dump_trajectory": cfg.dump_path,
    }
    for key, path in outputs.items():
        if path is not None and (path.is_dir() or not path.parent.is_dir()):
            raise ConfigError(
                f"invalid value for output.{key}: {str(path)!r} is not a file in an existing directory"
            )
    return cfg


def _cell_instance(spec):
    """(instance, initial guess) of the one configured cell, or None once the
    reason no instance could be built is printed."""
    if len(spec.dims) != 1 or len(spec.segment_counts) != 1:
        raise ConfigError("solve/check need exactly one problem.dim and one problem.segments value")
    n_segments = spec.segment_counts[0]
    try:
        instance = generate_instance(spec, spec.dims[0], n_segments)
        return instance, initial_guess(instance, n_segments, spec.horizon)
    except (IntegrationFailure, DegenerateInstance) as exc:
        print(f"instance generation failed: {exc}", file=sys.stderr)
        return None


def _json_record(record):
    """Every field of a dataclass ``record``, with non-finite floats as null."""
    return {
        key: _number(value) if isinstance(value, float) else value
        for key, value in asdict(record).items()
    }


def _write_trace(report, path):
    """JSON Lines: every ``TraceRecord`` field of each iteration, with
    non-finite floats as null."""
    with open(path, "w", newline="") as sink:
        for rec in report.trace:
            sink.write(json.dumps(_json_record(rec), allow_nan=False) + "\n")


def _number(value):
    """``value`` as a JSON number; non-finite values become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _write_report(cfg, row, path):
    report, checked = row.report, row.check
    vec = report.final_X
    form = cfg.spec.formulation
    payload = {
        "system": cfg.spec.system,
        "dim": row.n,
        "segments": row.N,
        "formulation": form.name,
        "objective_kind": form.objective,
        "regularizer": form.regularizer,
        "constraints": form.constraints,
        "hessian": cfg.sqp.hessian_variant,
        "kkt": cfg.sqp.kkt_method,
        "nit": report.nit,
        "hessian_skips": report.hessian_skips,
        "termination": report.termination.value,
        "last_attempt": _json_record(report.last_attempt) if report.last_attempt else None,
        "final_objective": _number(report.final_objective),
        "final_constraint_norm": _number(report.final_constraint_norm),
        "verified": checked.ok if checked else False,
        "verify_reasons": list(row.reasons),
        "init_distance": _number(checked.init_distance) if checked else None,
        "unsafe_distance": _number(checked.unsafe_distance) if checked else None,
        "final_times": [float(t) for t in vec.times],
        "final_states": [[float(v) for v in state] for state in vec.states],
    }
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", newline="") as sink:
        sink.write(f"# falsify report {stamp}\n")
        sink.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        sink.write("\n")


def cmd_solve(cfg):
    spec = cfg.spec
    cell = _cell_instance(spec)
    if cell is None:
        return 2
    instance, guess = cell
    dim, n_segments = instance.dim, instance.n_segments
    row = solve_instance(spec, instance, guess, cfg.sqp)
    report, checked = row.report, row.check
    _write_report(cfg, row, cfg.report_path)
    if cfg.trace_path:
        _write_trace(report, cfg.trace_path)
    if cfg.dump_path and checked is not None:
        dump_trajectory(instance, report.final_X, cfg.dump_path)
    verdict = "verified" if checked and checked.ok else "not verified"
    print(
        f"{spec.formulation.name} on {spec.system} (n={dim}, N={n_segments}): "
        f"{report.termination.value} after {report.nit} iterations, {verdict}"
    )
    print(f"report written to {cfg.report_path}")
    if report.termination is not Termination.S1_CONVERGED:
        return 2
    return 0 if checked.ok else 1


def cmd_bench(cfg):
    rows = run_table(cfg.spec, sqp=cfg.sqp)
    emit_csv(rows, cfg.table_path)
    emit_csv(rows, sys.stdout)
    print(f"table written to {cfg.table_path}")
    return 0


def cmd_check(cfg):
    """Derivative, rank, and solver cross-checks on the configured instance."""
    spec = cfg.spec
    cell = _cell_instance(spec)
    if cell is None:
        return 2
    instance, guess = cell
    form = spec.formulation
    n, n_segments = instance.dim, instance.n_segments
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
    # the gradient and the Jacobian check; a failing point ends the check
    steps = 1e-4 * np.eye(flat.size)
    points = [unpack(p, n, n_segments) for p in np.concatenate([flat + steps, flat - steps])]
    outcomes = evaluate_many(instance, points, tight)
    for outcome in outcomes:
        if isinstance(outcome, IntegrationFailure):
            raise outcome
    pairs = list(zip(points, outcomes))
    plus, minus = pairs[: flat.size], pairs[flat.size :]

    def central(value):
        """Central differences of ``value(vec, flows)``, one row per coordinate."""
        return np.array([(value(*p) - value(*m)) / 2e-4 for p, m in zip(plus, minus)])

    def compare(name, exact, fd):
        scale = max(1.0, float(np.linalg.norm(exact)))
        record(name, float(np.linalg.norm(exact - fd)) / scale, 1e-5)

    analytic = objective_gradient(form, instance, guess, flows)
    fd = central(partial(objective_value, form, instance))
    compare("objective_gradient_fd", analytic, fd)

    jac = constraint_jacobian(kind, instance, guess, flows)
    fd_jac = central(partial(constraint_value, kind, instance))  # (m1, 0) when unconstrained
    if m2:
        dense_jac = jac.toarray()
        compare("constraint_jacobian_fd", dense_jac, fd_jac)

        sigma_min = float(np.linalg.svd(dense_jac, compute_uv=False).min())
        results.append(
            ("constraint_rank", f"sigma_min={sigma_min:.3e} threshold=1.0e-10", sigma_min > 1e-10)
        )

    # central differences are linear in the function, so fd + fd_jac @ lam is
    # the central difference of the Lagrangian without another integration
    lam = rng.standard_normal(m2)
    assembled = lagrangian_gradient(analytic, jac, lam)
    compare("lagrangian_gradient_fd", assembled, fd + fd_jac @ lam)

    hess = init_identity(cfg.sqp.hessian_variant, n, n_segments)
    c_val = constraint_value(kind, instance, guess, flows)
    system = SaddleSystem(hess, jac, -assembled, -c_val)
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
    args = parser.parse_args(argv)

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
