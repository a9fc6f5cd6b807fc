"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT \
        [--workloads a,b] [--pairs 10] [--seconds 30] [--seed 1] --out BENCH_tag.json

For every workload (by default those CHANGE_ROOT/BENCHMARK.json lists) and
every pair i, runs each checkout's own ``perfbench/run.py --workload W
--seed SEED+i --seconds S --trace 0``, one process at a time, in that
checkout's directory.  Pair i runs the parent first when i is even and the
change first when it is odd, so a drift of the host's speed falls on both
sides alike.

The output file holds every run (side, pair, seed, order, exit code,
correctness and metrics) and, per workload and end-to-end metric, each
side's median and quartiles, the number of pairs each side won (by the
metric's "better" direction in CHANGE_ROOT/BENCHMARK.json), the relative
median delta, the parent's interquartile range, and three flags: whether the
change's median is worse than the parent's by more than the metric's bound
(``beyond_bound``), whether the change meets the gain rule, at least
9 of 10 pairs won and a median gain beyond the parent's IQR
(``gain_rule_met``), and whether the runs spread too widely to tell
(``unresolved``: the parent's IQR exceeds the bound and the two sides'
runs overlap).  It is rewritten after every run, so an interrupted
series keeps what it measured.  Exits 1 if any run failed: a non-zero exit
code, a result that is not "correct", or no result line; 0 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# a run that outlives this is killed and counted as failed; perfbench/run.py
# itself starts no pass after 140 s
RUN_TIMEOUT_S = 600


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def describe(root):
    """The commit a checkout is at, and whether its tree differs from it;
    both None outside a git checkout."""

    def git(*argv):
        done = subprocess.run(
            ["git", "-C", str(root), *argv], capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit, "modified": bool(status) if commit else None}


def run_once(root, workload, seed, seconds):
    """(exit code, result, metadata) of one benchmark run in ``root``.

    ``result`` is the last line of standard output as JSON and ``metadata``
    the line before it, each None when it is missing or not JSON."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, None, None
    sys.stderr.write(done.stderr)
    meta, result = (parse(line) for line in ([None, None] + done.stdout.splitlines())[-2:])
    return done.returncode, result, meta


def parse(line):
    """``line`` as JSON, or None when it is missing or not JSON."""
    try:
        return json.loads(line)
    except (TypeError, json.JSONDecodeError):
        return None


def failed(run):
    result = run["result"]
    return run["exit_code"] != 0 or result is None or not result.get("correct", False)


def quartiles(values):
    """(p25, median, p75), inclusive method: the sample's own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return p25, median, p75


def summarize(runs, better, bounds=None):
    """Per workload and metric: both sides' quartiles, pair wins, the
    relative median delta and the parent's IQR, over the runs that did not
    fail.  ``better`` maps a metric name to "lower" or "higher", and
    ``bounds`` to its bound, the largest relative worsening of the median
    that a change may show.

    Three flags read these numbers as a change's gates: ``beyond_bound``
    (None without a bound) when the change's median is worse than the
    parent's by more than the bound times the parent's median,
    ``gain_rule_met`` when the change won at least 9 of every 10 pairs and
    its median gain exceeds the parent's IQR, and ``unresolved`` (None
    without a bound) when the parent's IQR exceeds the bound times the
    parent's median and not every change run reads better than every parent
    run: a spread that wide leaves the bound untested."""
    bounds = bounds or {}
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = {}
        for run in runs:
            if run["workload"] == workload and not failed(run):
                sides.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        pairs = [pair for pair in sides.values() if len(pair) == 2]
        entry = {"pairs": len(pairs)}
        for name, direction in better.items():
            values = [
                (pair["parent"][name]["value"], pair["change"][name]["value"])
                for pair in pairs
                if name in pair["parent"] and name in pair["change"]
            ]
            if not values:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            parent = [p for p, _ in values]
            change = [c for _, c in values]
            p25, p_med, p75 = quartiles(parent)
            c25, c_med, c75 = quartiles(change)
            change_won = sum(sign * (c - p) < 0 for p, c in values)
            # the change's worst run against the parent's best
            separated = max(sign * c for c in change) < min(sign * p for p in parent)
            gain_exceeds_iqr = sign * (p_med - c_med) > p75 - p25
            bound = bounds.get(name)
            entry[name] = {
                "better": direction,
                "parent": {"median": p_med, "p25": p25, "p75": p75},
                "change": {"median": c_med, "p25": c25, "p75": c75},
                "change_won_pairs": change_won,
                "parent_won_pairs": sum(sign * (c - p) > 0 for p, c in values),
                "median_delta_rel": (c_med - p_med) / p_med if p_med else None,
                "parent_iqr": p75 - p25,
                "median_gain_exceeds_parent_iqr": gain_exceeds_iqr,
                "beyond_bound": (
                    None if bound is None else sign * (c_med - p_med) > bound * abs(p_med)
                ),
                "gain_rule_met": 10 * change_won >= 9 * len(values) and gain_exceeds_iqr,
                "unresolved": (
                    None if bound is None else p75 - p25 > bound * abs(p_med) and not separated
                ),
            }
        summary[workload] = entry
    return summary


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"] if "bound" in metric}
    report = {
        "what": "alternating parent/change pairs of the benchmark's end-to-end metrics",
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
        f"--seconds {args.seconds:g} --trace 0",
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "quartiles": "statistics.quantiles(method='inclusive') over the pairs where both sides ran",
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "parent": describe(roots["parent"]),
        "change": describe(roots["change"]),
        "runs": [],
        "summary": {},
    }
    runs = report["runs"]
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                code, result, meta = run_once(roots[side], workload, seed, args.seconds)
                run = {
                    "workload": workload, "pair": pair, "seed": seed, "side": side,
                    "position": position, "exit_code": code, "result": result,
                }
                if meta is not None and "numpy" not in report["host"]:
                    host = meta.get("meta", {})
                    report["host"].update({key: host.get(key) for key in ("numpy", "scipy", "blas")})
                runs.append(run)
                wall = (result or {}).get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: exit {code}, wall_s {wall}", file=sys.stderr)
                report["summary"] = summarize(runs, better, bounds)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(failed(run) for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
