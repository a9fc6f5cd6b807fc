"""Outcome grid: NIT and the S digit of a fixed set of `falsify bench` cells.

    python3 tests/outcome_grid.py ROOT --out GRID_tag.json [--cells a,b]
    python3 tests/outcome_grid.py --compare A.json B.json

The first form solves every cell of the grid with the library in ROOT/src,
one cell after another in this process, as `falsify bench` would (stock
instance and initial guess, `SqpConfig` defaults, ppcg, eps4 = 1e-4).  Each
cell records NIT, its S digit or "F" with the reasons, the termination, the
distances `verify` measured, how many steps each KKT rung produced and its
wall time.  ``--cells`` solves only the named cells.  Nothing is written
into ROOT.

The second form compares two grid files and exits 1 when the second is
worse.  `full` cells are compared one by one: every S digit that got better
or worse, and every NIT delta with the totals.  `blockdiag` cells are
compared by their found share (cells not "F") only, with the cells that were
found on one side and not on the other.  Their iterates are sensitive to
rounding: raising every step d_x by one ulp moves NIT on benchmark2 n3 N5
eq6 from 207 to 115 and turns benchmark3 n2 N10 eq6 from S1 into F, so a
per-cell outcome says little there.  The second file is worse when a `full`
cell's digit gets worse or the `blockdiag` found share drops.
"""

import argparse
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

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


def solve_cell(system, dim, count, form, hessian):
    """The grid record of one cell, solved by the imported library."""
    from falsify.bench import BenchSpec, run_table
    from falsify.formulation import Formulation
    from falsify.sqp import SqpConfig

    spec = BenchSpec(system, (dim,), (count,), Formulation.by_name(form))
    start = time.perf_counter()
    (row,) = run_table(spec, SqpConfig(hessian_variant=hessian))
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


def run_grid(root, only):
    unknown = set(only or ()) - {cell[0] for cell in grid_cells()}
    if unknown:
        raise SystemExit(f"not grid cells: {sorted(unknown)}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import falsify

    if Path(falsify.__file__).resolve().parent != root / "src" / "falsify":
        raise ImportError(f"falsify was imported from {falsify.__file__}, not from {root}/src")
    cells = {}
    for name, *cell in grid_cells():
        if only is None or name in only:
            cells[name] = solve_cell(*cell)
            print(f"{name} {cells[name]['nit']} {cells[name]['status']}", file=sys.stderr)
    return {
        "what": "falsify bench cells: stock instance and guess, SqpConfig defaults, ppcg",
        "root": describe(root),
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "total_wall_s": round(sum(cell["wall_s"] for cell in cells.values()), 3),
        "cells": cells,
    }


def outcome(cell):
    """The S digit, or F with its reasons."""
    if cell["status"] == "F":
        return "F " + ",".join(cell["reasons"])
    return "S" + cell["status"]


def rank(cell):
    """F < S2, S3 < S1."""
    return {"F": 0, "2": 1, "3": 1, "1": 2}[cell["status"]]


def compare(a, b):
    """Lines of the comparison of grid files ``a`` and ``b``, and whether
    ``b`` is worse."""
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
            lines.append(f"  {verdict}: {name} {outcome(old)} -> {outcome(new)}")
    for name in full:
        old, new = cells_a[name]["nit"], cells_b[name]["nit"]
        if old != new:
            lines.append(f"  nit: {name} {old} -> {new} ({new - old:+d})")
    nit_a = sum(cells_a[name]["nit"] for name in full)
    nit_b = sum(cells_b[name]["nit"] for name in full)
    lines.append(f"  nit total {nit_a} -> {nit_b}")

    found_a = sum(cells_a[name]["status"] != "F" for name in block)
    found_b = sum(cells_b[name]["status"] != "F" for name in block)
    worse |= found_b < found_a
    lines.append(f"blockdiag: {len(block)} cells, found {found_a} -> {found_b}")
    for name in block:
        old, new = cells_a[name], cells_b[name]
        if (old["status"] == "F") != (new["status"] == "F"):
            lines.append(
                f"  {'lost' if new['status'] == 'F' else 'gained'}: "
                f"{name} {outcome(old)} -> {outcome(new)}"
            )
    lines.append(f"wall_s total {a['total_wall_s']} -> {b['total_wall_s']}")
    return lines, worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, nargs="?", help="checkout whose src/ to solve with")
    parser.add_argument("--out", type=Path, help="grid file to write")
    parser.add_argument("--cells", help="comma-separated cell names (default: every cell)")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        lines, worse = compare(a, b)
        print("\n".join(lines))
        return 1 if worse else 0
    if args.root is None or args.out is None:
        parser.error("ROOT and --out are required unless --compare is given")
    only = args.cells.split(",") if args.cells else None
    grid = run_grid(args.root.resolve(), only)
    args.out.write_text(json.dumps(grid, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
