"""Outcome grid: NIT and the S digit of a fixed set of `falsify bench` cells.

    python3 tests/outcome_grid.py ROOT --out GRID_tag.json [--cells a,b]
    python3 tests/outcome_grid.py ROOT --jitter K --out GRID_noise_tag.json [--cells a,b]
    python3 tests/outcome_grid.py --compare A.json B.json [--noise N.json]

The first form solves every cell of the grid with the library in ROOT/src,
one cell after another in this process, as `falsify bench` would (stock
instance and initial guess, `SqpConfig` defaults, ppcg, eps4 = 1e-4).  Each
cell records NIT, its S digit or "F" with the reasons, the termination, the
distances `verify` measured, how many steps each KKT rung produced and its
wall time.  ``--cells`` solves only the named cells.  Nothing is written
into ROOT.

The second form measures the rounding noise of the cells: it solves each
of them K + 1 times, from the stock guess with every duration raised by 0,
1, ..., K ulp (``np.nextafter``), and records each run's NIT, S digit and
reasons.  The guess is built here; the library has no hook for it.

The third form compares two grid files and exits 1 when the second is
worse.  `full` cells are compared one by one: every S digit that got better
or worse, and every NIT delta with the totals.  `blockdiag` cells are
compared by their found share (cells not "F") only, with the cells that were
found on one side and not on the other; each side's count of S1 cells is
printed beside its found share, as a report only: a cell that stops S2 at the
iteration cap can verify as found by chance.  Their iterates are sensitive to
rounding: raising every step d_x by one ulp moves NIT on benchmark2 n3 N5
eq6 from 207 to 115 and turns benchmark3 n2 N10 eq6 from S1 into F, so a
per-cell outcome says little there.  The second file is worse when a `full`
cell's digit gets worse or the `blockdiag` found share drops.  With
``--noise``, each `full` NIT delta and digit change, and each `blockdiag`
cell found on one side only, is marked inside or outside the noise file's
range for that cell (the NITs and the outcomes its jittered runs reached).
The `full` NIT total is shown with the band the per-cell ranges add up to,
and the `blockdiag` found share is marked against the found shares of the
noise file's runs at 0, 1, ..., K ulp.  The marks inform the reader; they do
not enter the verdict.
"""

import argparse
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from bench_pairs import describe

SYSTEMS = (
    ("benchmark1", 2), ("benchmark1", 4), ("benchmark2", 3), ("benchmark3", 2), ("benchmark3", 4)
)
SEGMENTS = (5, 10)
FORMULATIONS = tuple(f"eq{k}" for k in range(5, 14))
# `blockdiag` cells left out: each took over 8 s in a first run of all 90
# on a 2-core x86 host, beside another job, together 877 of their 1034 s.
# The 64 left and the 90 `full` cells take 150 s there on an idle host.
BLOCKDIAG_SKIPPED = frozenset("""
benchmark1-n2-N5-eq11 benchmark1-n2-N5-eq13 benchmark1-n2-N10-eq7 benchmark1-n2-N10-eq10
benchmark1-n2-N10-eq11 benchmark1-n2-N10-eq12 benchmark1-n4-N5-eq5 benchmark1-n4-N5-eq10
benchmark1-n4-N5-eq11 benchmark1-n4-N5-eq12 benchmark1-n4-N10-eq6 benchmark1-n4-N10-eq7
benchmark1-n4-N10-eq10 benchmark1-n4-N10-eq11 benchmark1-n4-N10-eq12 benchmark1-n4-N10-eq13
benchmark2-n3-N5-eq12 benchmark2-n3-N10-eq6 benchmark2-n3-N10-eq7 benchmark2-n3-N10-eq10
benchmark2-n3-N10-eq11 benchmark2-n3-N10-eq12 benchmark2-n3-N10-eq13 benchmark3-n2-N5-eq10
benchmark3-n2-N10-eq13 benchmark3-n4-N10-eq11
""".split())


def grid_cells():
    """(name, system, n, N, formulation, hessian) of every grid cell, in order."""
    cells = []
    for hessian in ("full", "blockdiag"):
        for system, dim in SYSTEMS:
            for count in SEGMENTS:
                for form in FORMULATIONS:
                    name = f"{system}-n{dim}-N{count}-{form}"
                    if hessian == "blockdiag" and name in BLOCKDIAG_SKIPPED:
                        continue
                    name += f"-{hessian}"
                    cells.append((name, system, dim, count, form, hessian))
    return cells


def solve_cell(system, dim, count, form, hessian, jitter=0):
    """The grid record of one cell, solved by the imported library as
    `falsify bench` solves it, from the stock guess with its durations
    raised by ``jitter`` ulp (none by default)."""
    from falsify.bench import BenchSpec, generate_instance, initial_guess, solve_instance
    from falsify.formulation import Formulation
    from falsify.shooting import ShootingVector
    from falsify.sqp import SqpConfig

    spec = BenchSpec(system, (dim,), (count,), Formulation.by_name(form))
    cfg = SqpConfig(hessian_variant=hessian)
    start = time.perf_counter()
    instance = generate_instance(spec, dim, count)
    guess = initial_guess(instance, count, spec.horizon)
    times = guess.times
    for _ in range(jitter):
        times = np.nextafter(times, np.inf)
    row = solve_instance(spec, instance, ShootingVector(guess.states, times), cfg)
    wall = time.perf_counter() - start
    report, check = row.report, row.check
    return {
        "nit": row.nit,
        "status": row.status,
        "reasons": list(row.reasons),
        "termination": report.termination.value if report else None,
        "init_distance": check.init_distance if check else None,
        "unsafe_distance": check.unsafe_distance if check else None,
        "rungs": dict(Counter(record.kkt_rung for record in report.trace)) if report else {},
        "wall_s": round(wall, 3),
    }


def import_library(root):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import falsify

    if Path(falsify.__file__).resolve().parent != root / "src" / "falsify":
        raise ImportError(f"falsify was imported from {falsify.__file__}, not from {root}/src")


def chosen_cells(only):
    """The grid cells named in ``only`` (every cell when None)."""
    cells = grid_cells()
    unknown = set(only or ()) - {cell[0] for cell in cells}
    if unknown:
        raise SystemExit(f"not grid cells: {sorted(unknown)}")
    return [cell for cell in cells if only is None or cell[0] in only]


def header(root):
    return {
        "what": "falsify bench cells: stock instance and guess, SqpConfig defaults, ppcg",
        "root": describe(root),
        "host": {"machine": platform.machine(), "python": platform.python_version()},
    }


def run_grid(root, only):
    cells = {}
    chosen = chosen_cells(only)
    import_library(root)
    for name, *cell in chosen:
        cells[name] = solve_cell(*cell)
        print(f"{name} {cells[name]['nit']} {cells[name]['status']}", file=sys.stderr)
    return {
        **header(root),
        "total_wall_s": round(sum(cell["wall_s"] for cell in cells.values()), 3),
        "cells": cells,
    }


def run_noise(root, jitter, only):
    """Per cell, the NIT, digit and reasons of its runs from the stock guess
    with the durations raised by 0, 1, ..., ``jitter`` ulp."""
    cells, wall = {}, 0.0
    chosen = chosen_cells(only)
    import_library(root)
    for name, *cell in chosen:
        runs = [solve_cell(*cell, jitter=k) for k in range(jitter + 1)]
        wall += sum(run["wall_s"] for run in runs)
        cells[name] = {key: [run[key] for run in runs] for key in ("nit", "status", "reasons")}
        print(f"{name} {cells[name]['nit']} {cells[name]['status']}", file=sys.stderr)
    return {**header(root), "jitter": jitter, "total_wall_s": round(wall, 3), "cells": cells}


def outcome(cell):
    """The S digit, or F with its reasons."""
    if cell["status"] == "F":
        return "F " + ",".join(cell["reasons"])
    return "S" + cell["status"]


def rank(cell):
    """F < S2, S3 < S1."""
    return {"F": 0, "2": 1, "3": 1, "1": 2}[cell["status"]]


def noise_mark(noise, name, cell, what):
    """"" without a noise file, else " (inside noise: ...)" or " (outside
    noise: ...)": whether ``cell``'s NIT (``what`` "nit") or outcome
    (``what`` "outcome") is one the noise file's runs of ``name`` reached."""
    if noise is None:
        return ""
    runs = noise["cells"].get(name)
    if runs is None:
        return " (no noise record)"
    if what == "nit":
        low, high = min(runs["nit"]), max(runs["nit"])
        inside, seen = low <= cell["nit"] <= high, f"nit {low}..{high}"
    else:
        outcomes = sorted({outcome({"status": status, "reasons": reasons})
                           for status, reasons in zip(runs["status"], runs["reasons"])})
        inside, seen = outcome(cell) in outcomes, " / ".join(outcomes)
    return f" ({'inside' if inside else 'outside'} noise: {seen})"


def compare(a, b, noise=None):
    """Lines of the comparison of grid files ``a`` and ``b``, each change
    marked against the noise file ``noise`` when given, and whether ``b`` is
    worse."""
    cells_a, cells_b = a["cells"], b["cells"]
    if set(cells_a) != set(cells_b):
        return [f"cell lists differ: {sorted(set(cells_a) ^ set(cells_b))}"], True
    full = [name for name in cells_a if name.endswith("-full")]
    block = [name for name in cells_a if name.endswith("-blockdiag")]
    lines, worse = [], False

    found_a = sum(cells_a[name]["status"] != "F" for name in full)
    found_b = sum(cells_b[name]["status"] != "F" for name in full)
    lines.append(f"full: {len(full)} cells, found {found_a} -> {found_b}")
    for name in full:
        old, new = cells_a[name], cells_b[name]
        if outcome(old) != outcome(new):
            verdict = {1: "better", -1: "worse", 0: "changed"}[
                (rank(new) > rank(old)) - (rank(new) < rank(old))
            ]
            worse |= verdict == "worse"
            lines.append(
                f"  {verdict}: {name} {outcome(old)} -> {outcome(new)}"
                + noise_mark(noise, name, new, "outcome")
            )
    for name in full:
        old, new = cells_a[name]["nit"], cells_b[name]["nit"]
        if old != new:
            lines.append(
                f"  nit: {name} {old} -> {new} ({new - old:+d})"
                + noise_mark(noise, name, cells_b[name], "nit")
            )
    nit_a = sum(cells_a[name]["nit"] for name in full)
    nit_b = sum(cells_b[name]["nit"] for name in full)
    band = ""
    if noise is not None and all(name in noise["cells"] for name in full):
        low = sum(min(noise["cells"][name]["nit"]) for name in full)
        high = sum(max(noise["cells"][name]["nit"]) for name in full)
        band = f" (noise band {low}..{high})"
    lines.append(f"  nit total {nit_a} -> {nit_b}{band}")

    found_a = sum(cells_a[name]["status"] != "F" for name in block)
    found_b = sum(cells_b[name]["status"] != "F" for name in block)
    worse |= found_b < found_a
    converged_a = sum(cells_a[name]["status"] == "1" for name in block)
    converged_b = sum(cells_b[name]["status"] == "1" for name in block)
    mark = ""
    if noise is not None and block and all(name in noise["cells"] for name in block):
        # found share of the noise file's run at each jitter
        runs = zip(*(noise["cells"][name]["status"] for name in block))
        shares = [sum(status != "F" for status in run) for run in runs]
        inside = min(shares) <= found_b <= max(shares)
        mark = f" ({'inside' if inside else 'outside'} noise: found {min(shares)}..{max(shares)})"
    lines.append(
        f"blockdiag: {len(block)} cells, found {found_a} (S1 {converged_a})"
        f" -> {found_b} (S1 {converged_b}){mark}"
    )
    for name in block:
        old, new = cells_a[name], cells_b[name]
        if (old["status"] == "F") != (new["status"] == "F"):
            lines.append(
                f"  {'lost' if new['status'] == 'F' else 'gained'}: "
                f"{name} {outcome(old)} -> {outcome(new)}"
                + noise_mark(noise, name, new, "outcome")
            )
    lines.append(f"wall_s total {a['total_wall_s']} -> {b['total_wall_s']}")
    return lines, worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, nargs="?", help="checkout whose src/ to solve with")
    parser.add_argument("--out", type=Path, help="grid file to write")
    parser.add_argument("--cells", help="comma-separated cell names (default: every cell)")
    parser.add_argument("--jitter", type=int, metavar="K",
                        help="solve each cell K + 1 times, durations raised by 0..K ulp")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    parser.add_argument("--noise", type=Path, help="noise file to mark --compare's changes against")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        noise = json.loads(args.noise.read_text()) if args.noise else None
        lines, worse = compare(a, b, noise)
        print("\n".join(lines))
        return 1 if worse else 0
    if args.root is None or args.out is None:
        parser.error("ROOT and --out are required unless --compare is given")
    if args.jitter is not None and args.jitter < 1:
        parser.error("--jitter must be at least 1")
    only = args.cells.split(",") if args.cells else None
    if args.jitter:
        grid = run_noise(args.root.resolve(), args.jitter, only)
    else:
        grid = run_grid(args.root.resolve(), only)
    args.out.write_text(json.dumps(grid, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
