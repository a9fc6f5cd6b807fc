"""Falsify benchmark: solve a workload's cells by SQP, verify them, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass solves every cell of the workload (see workloads.py) with
`falsify.sqp.run` and checks each result with `falsify.bench.verify`, in
one process.  After one warm-up pass the run repeats passes for about
``--seconds`` seconds, at least MIN_PASSES times.

``--trace 0`` reports the end-to-end metrics: the median pass time, the
median of SETUP_REPEATS set-ups in fresh interpreters, peak RSS, the share
of cells found and the total SQP iterations of a pass.  Both times are
scaled to a reference host speed measured between cells (see hostspeed.py);
the raw times are on the detail line.  ``--trace 1`` alternates plain and
traced passes and reports per-layer metrics from the traced ones (see
tracing.py), plus the tracing overhead.

Every cell must end S1 (converged) and pass verify on every pass, give the
same iterations, status, objective and final vector on every pass, and
pass a second verify with a tighter integrator.  A cell that does not is
named on standard error, and the run exits with code 1.  The line before
the last one of standard output holds the run's metadata, the samples and
the per-cell results; the last line holds the metrics.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import workloads  # first: puts the checkout's sources on sys.path

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from falsify import IntegratorConfig, Termination, run, verify  # noqa: E402
from falsify.integrate import numba_path_enabled  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 3
# No pass starts that would end after this, so a slow host still gets a
# result within the 180 s a run may take.
DEADLINE_S = 140.0
# Re-verification integrates the candidate three orders of magnitude tighter
# than the solver's own integrator.
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
# Printed only on the detail line: it reads 0 on every run of a workload
# without direct-solve cells, so the metric line carries kkt.s instead.
DETAIL_ONLY = ("kkt.solve_direct.s",)
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "found_share": "share",
    "nit": "count",
    "sqp.accept_ratio": "ratio",
}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


@dataclass(frozen=True)
class Outcome:
    """What one pass got for one cell."""

    nit: int
    status: str
    objective: float
    final_X: object
    cg_iterations: int
    found: bool
    error: str = ""


def solve_pass(inputs, tracer=None, probe=None):
    """Solve and verify every cell once; returns (seconds, outcomes, probe times).

    ``probe``, when given, runs before the first cell and after each cell,
    outside the timed cells.
    """
    solve, check = run, verify
    if tracer is not None:
        solve = tracer.span("sqp.run", run)
        check = tracer.span("bench.verify", verify)
    outcomes, seconds = [], 0.0
    probes = [probe()] if probe else []
    for item in inputs:
        start = perf_counter()
        try:
            report = solve(item.formulation, item.instance, item.guess, item.config)
            checked = check(item.instance, report.final_X, workloads.EPS4)
        except Exception:  # one cell's failure is reported; the others still run
            error = traceback.format_exc()
            outcome = Outcome(0, "exception", math.nan, None, 0, False, error)
        else:
            outcome = Outcome(
                report.nit,
                report.termination.value,
                report.final_objective,
                report.final_X,
                sum(record.cg_iterations for record in report.trace),
                report.termination is Termination.S1_CONVERGED and checked.ok,
                "" if checked.ok else "verify: " + ",".join(checked.reasons),
            )
        seconds += perf_counter() - start
        outcomes.append(outcome)
        if probe:
            probes.append(probe())
    return seconds, outcomes, probes


def _same(a, b):
    return (
        (a.nit, a.status) == (b.nit, b.status)
        and np.array_equal([a.objective], [b.objective], equal_nan=True)
        and np.array_equal(a.final_X.states, b.final_X.states)
        and np.array_equal(a.final_X.times, b.final_X.times)
    )


def check_results(inputs, groups):
    """Check every pass's outcomes; returns (failed, incorrect, messages).

    ``groups`` holds groups of passes that must agree exactly, each a list
    of per-cell outcome lists.  ``failed`` counts outcomes that were not
    found, plus every outcome of a cell whose passes disagree or whose
    result fails re-verification; ``incorrect`` is true in those two cases.
    """
    failed, incorrect, messages = 0, False, []
    for index, item in enumerate(inputs):
        name = item.cell.name
        by_group = [[outcomes[index] for outcomes in group] for group in groups]
        every = [o for group in by_group for o in group]
        lost = [o for o in every if not o.found]
        if lost:
            failed += len(lost)
            detail = f"{lost[0].status} {lost[0].error}".rstrip()
            messages.append(f"{name}: not found in {len(lost)} of {len(every)} passes: {detail}")
            continue
        if not all(_same(group[0], o) for group in by_group for o in group):
            failed += len(every)
            incorrect = True
            messages.append(f"{name}: passes differ in iterations, status, objective or final vector")
            continue
        recheck = verify(item.instance, every[0].final_X, workloads.EPS4, TIGHT)
        if not recheck.ok:
            failed += len(every)
            incorrect = True
            messages.append(f"{name}: re-verification failed: {','.join(recheck.reasons)}")
    return failed, incorrect, messages


def measure_setup(workload, seed, expected_digest):
    """Raw and scaled set-up times of SETUP_REPEATS fresh interpreters.

    See setup_probe.py; each probe times the host-speed loop after its set-up.
    """
    command = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command + ["--seed", str(seed)], capture_output=True, text=True, timeout=60, check=True
        )
        probe = json.loads(done.stdout.splitlines()[-1])
        if probe["digest"] != expected_digest:
            raise RuntimeError("set-up in a fresh interpreter built different inputs")
        raw.append(probe["setup_s"])
        scaled.append(hostspeed.scaled(probe["setup_s"], *probe["loop_s"]))
    return raw, scaled


def summary(samples):
    out = {"median": statistics.median(samples), "count": len(samples), "samples": samples}
    if len(samples) > 1:
        out["p25"], _, out["p75"] = statistics.quantiles(samples, n=4)
    return out


def blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy ship, by file name."""
    counts = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    counts[lib.name] = getter()
                    break
    return counts


def git_sha():
    """Commit of the checkout, or None where it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(workloads.ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(seed):
    """Everything a comparison of two runs must hold equal."""
    blas = {}
    for package in (np, scipy):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[package.__name__] = f"{info['name']} {info.get('version', '')}".strip()
    blas["threads"] = blas_threads()
    blas["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "seed": seed,
        # numba-path figures are never comparable with numpy-path figures
        "numba_path": numba_path_enabled(),
    }


def layer_metrics(tracer, outcomes):
    """Per-layer metrics of one traced pass."""
    out = {
        "systems.rhs.calls": tracer.counts["systems.rhs.calls"],
        "systems.jac.calls": tracer.counts["systems.jac.calls"],
    }
    for name in (
        "integrate.flow_with_sensitivity",
        "integrate.flow",
        "shooting.evaluate_segments",
        "formulation.constraint_jacobian",
        "hessian.update",
    ):
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.total[name]
    gradient = "formulation.lagrangian_gradient"
    out[f"{gradient}.calls"] = tracer.calls[gradient]
    out[f"{gradient}.self_s"] = tracer.self_time(gradient)
    for name in ("kkt.solve_direct", "kkt.solve_ppcg"):
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.total[name]
        out[f"{name}.fail"] = tracer.fails[name]
    out["kkt.s"] = out["kkt.solve_direct.s"] + out["kkt.solve_ppcg.s"]
    out["kkt.cg_iterations"] = sum(o.cg_iterations for o in outcomes)
    # the fallback ladder reaches least squares exactly when the direct solve raises
    out["kkt.lstsq_fallbacks"] = tracer.fails["kkt.solve_direct"]
    out["hessian.skips"] = tracer.counts["hessian.skips"]
    trial_evals = tracer.counts["sqp.trial_evals"]
    out["sqp.trial_evals"] = trial_evals
    out["sqp.accept_ratio"] = sum(o.nit for o in outcomes) / trial_evals if trial_evals else 0.0
    out["sqp.line_search.self_s"] = tracer.self_time("sqp.line_search")
    out["bench.verify.s"] = tracer.total["bench.verify"]
    return out


def layer_shares(layers, pass_s):
    """Shares of a traced pass's time, as in the workload's baseline."""
    parts = {
        "integrate": layers["integrate.flow_with_sensitivity.s"],
        "assembly": layers["formulation.constraint_jacobian.s"]
        + layers["formulation.lagrangian_gradient.self_s"],
        "ppcg": layers["kkt.solve_ppcg.s"],
        "direct": layers["kkt.solve_direct.s"],
        "line_search_self": layers["sqp.line_search.self_s"],
        "hessian": layers["hessian.update.s"],
    }
    return {name: value / pass_s for name, value in parts.items()}


def keep_going(count, minimum, used, next_s, seconds):
    """Whether to start another pass (or pair) expected to take ``next_s``."""
    if used + next_s > DEADLINE_S:
        return False
    return count < minimum or used + next_s <= seconds


def measure_plain(inputs, seconds, started):
    """Warm-up, then timed passes with host-speed probes between cells.

    Returns (warm-up time, raw pass times, scaled pass times, probe times, passes).
    """
    warmup_s, outcomes, _ = solve_pass(inputs)
    passes, times, scaled, probes = [outcomes], [], [], []
    while not times or keep_going(
        len(times), MIN_PASSES, perf_counter() - started, statistics.median(times), seconds
    ):
        elapsed, outcomes, loops = solve_pass(inputs, probe=hostspeed.loop_s)
        times.append(elapsed)
        scaled.append(hostspeed.scaled(elapsed, *loops))
        probes.extend(loops)
        passes.append(outcomes)
    return warmup_s, times, scaled, probes, [passes]


def measure_traced(inputs, seconds, started):
    """Warm-up, then pairs of plain and traced passes; returns (layers, detail, groups).

    The tracing overhead compares the pass times scaled to reference host speed.
    """
    plain, traced = [solve_pass(inputs)[1]], []
    plain_times, traced_times, plain_scaled, traced_scaled, per_pass = [], [], [], [], []
    while not per_pass or keep_going(
        len(per_pass),
        MIN_PASSES - 1,
        perf_counter() - started,
        statistics.median(plain_times) + statistics.median(traced_times),
        seconds,
    ):
        elapsed, outcomes, loops = solve_pass(inputs, probe=hostspeed.loop_s)
        plain_times.append(elapsed)
        plain_scaled.append(hostspeed.scaled(elapsed, *loops))
        plain.append(outcomes)
        tracer = tracing.Tracer()
        counted = [
            replace(item, instance=tracing.counting_system(item.instance, tracer))
            for item in inputs
        ]
        with tracing.installed(tracer):
            elapsed, outcomes, loops = solve_pass(counted, tracer, probe=hostspeed.loop_s)
        traced_times.append(elapsed)
        traced_scaled.append(hostspeed.scaled(elapsed, *loops))
        traced.append(outcomes)
        per_pass.append(layer_metrics(tracer, outcomes))
    layers = {
        name: (statistics.median_low if unit(name) == "count" else statistics.median)(
            layer[name] for layer in per_pass
        )
        for name in per_pass[0]
    }
    layers["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(plain_scaled)
    detail = {
        "plain_pass_s": summary(plain_times),
        "traced_pass_s": summary(traced_times),
        "plain_scaled_s": summary(plain_scaled),
        "traced_scaled_s": summary(traced_scaled),
        "shares": layer_shares(layers, statistics.median(traced_times)),
        "layers": layers,
    }
    # a counted system always integrates on the numpy path, so traced passes
    # are compared only with each other
    return layers, detail, [plain, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.workload_inputs(workload, args.seed)
    detail = {"meta": metadata(args.seed), "workload": workload.name}

    if args.trace:
        layers, extra, groups = measure_traced(inputs, args.seconds, started)
        detail.update(extra, baseline_shares=workload.shares)
        metrics = {name: value for name, value in layers.items() if name not in DETAIL_ONLY}
    else:
        setup_raw, setup = measure_setup(workload, args.seed, workloads.digest(inputs))
        warmup_s, raw, times, loops, groups = measure_plain(inputs, args.seconds, started)
        detail.update(
            warmup_s=warmup_s,
            setup_s=summary(setup),
            setup_raw_s=summary(setup_raw),
            wall_s=summary(times),
            wall_raw_s=summary(raw),
            hostspeed_loop_s=summary(loops),
        )

    failed, incorrect, messages = check_results(inputs, groups)
    attempted = sum(len(group) for group in groups) * len(inputs)
    last = groups[0][-1]
    detail["cells"] = [
        {"cell": item.cell.name, "nit": o.nit, "status": o.status, "found": o.found}
        for item, o in zip(inputs, last)
    ]
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "found_share": (attempted - failed) / attempted,
            "nit": sum(o.nit for o in last),
        }
    print(json.dumps(detail))
    for message in messages:
        print(message, file=sys.stderr)
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 1 if failed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
