"""Bitwise fingerprint of the solver's iterates on the benchmark's cells.

    python3 tests/iterate_digest.py ROOT [--seeds 0-7] [--workloads a,b] [--cells]
    python3 tests/iterate_digest.py --compare A.txt B.txt

Solves every cell of the chosen workloads (by default those that
ROOT/BENCHMARK.json measures) for every seed, with the inputs of
ROOT/perfbench/workloads.make_inputs and the library in ROOT/src, and
prints the cell count and one sha256 per workload.  A hash covers, for each
cell and seed: nit, termination, final objective, constraint norm, final
shooting vector, multiplier values, every field of every TraceRecord, the
report's BFGS skip count and failing-iteration record (``hessian_skips``,
``last_attempt``) and the verify result.  A field declared with a default is
hashed only where it differs from that default, so appending such a field
leaves the hash of every run that keeps it at its default unchanged.
Running it on two checkouts, one process each, shows whether a change keeps
the iterates bitwise unchanged.  ``--cells`` also prints, before each
workload's line, one line per cell and seed:
``workload seed cell-name nit termination`` and the first 12 hex digits of
that cell's own hash, so a mismatch names its cell.  Nothing is written
into ROOT.

The second form reads two ``--cells`` listings, prints every cell-seed
whose nit or termination differs, or that only one listing holds, and a
count; it exits 1 on any such difference and 0 otherwise (2 when a file
holds no cell line).  Cell hashes are not compared: a change that only
re-rounds moves them.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, astuple, fields, is_dataclass
from pathlib import Path

import numpy as np


def parse_seeds(text):
    """"0-7" or "0,3,5-6" as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def feed(h, *values):
    """Add each value to ``h`` by its bits, whatever its Python number type."""
    for value in values:
        if isinstance(value, str):
            h.update(value.encode() + b"\0")
        elif isinstance(value, tuple):
            feed(h, len(value), *value)
        else:
            h.update(np.asarray(value, dtype=float).tobytes())


class Tee:
    """Feeds the same bytes to several hashes."""

    def __init__(self, *hashes):
        self.hashes = hashes

    def update(self, data):
        for h in self.hashes:
            h.update(data)


def feed_cell(h, item, run, verify, eps4):
    """Feed one cell's solve to ``h``; returns its "nit termination" text."""
    feed(h, item.cell.name)
    try:
        report = run(item.formulation, item.instance, item.guess, item.config)
        checked = verify(item.instance, report.final_X, eps4)
    except Exception as exc:  # a raising cell is part of the fingerprint
        feed(h, "exception", type(exc).__name__, str(exc))
        return f"- {type(exc).__name__}"
    final = report.final_X
    feed(
        h,
        report.nit,
        report.termination.value,
        report.final_objective,
        report.final_constraint_norm,
        final.states,
        final.times,
        report.final_multipliers,
    )
    for record in report.trace:
        pairs = ((f, getattr(record, f.name)) for f in fields(record))
        feed(h, *(value for f, value in pairs if value != f.default))
    for f in fields(report):
        value = getattr(report, f.name)
        if f.default is not MISSING and value != f.default:
            feed(h, f.name, astuple(value) if is_dataclass(value) else value)
    feed(h, checked.ok, checked.reasons, checked.init_distance, checked.unsafe_distance)
    return f"{report.nit} {report.termination.value}"


def read_cells(path):
    """{(workload, seed, cell): "nit termination"} of a ``--cells`` listing."""
    outcomes = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) == 6:
            workload, seed, cell, nit, termination, _ = parts
            outcomes[workload, seed, cell] = f"{nit} {termination}"
    return outcomes


def compare(path_a, path_b):
    """Print the cell-seeds whose outcome differs; the exit code."""
    before, after = read_cells(path_a), read_cells(path_b)
    if not before or not after:
        print("no cell lines: compare two --cells listings", file=sys.stderr)
        return 2
    keys = sorted(before.keys() | after.keys(), key=lambda k: (k[0], int(k[1]), k[2]))
    differ = 0
    for key in keys:
        old, new = before.get(key, "missing"), after.get(key, "missing")
        if old != new:
            print(f"{' '.join(key)}: {old} -> {new}")
            differ += 1
    print(f"{differ} of {len(keys)} cell-seeds differ in nit or termination")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "root", type=Path, nargs="?", help="checkout whose src/ and perfbench/ to use"
    )
    parser.add_argument("--seeds", default="0-7", help='seed list, e.g. "0-7" or "0,2"')
    parser.add_argument("--workloads", help="comma-separated names (default: BENCHMARK.json's)")
    parser.add_argument("--cells", action="store_true", help="also print one line per cell")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="compare two --cells listings"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.root is None:
        parser.error("give ROOT or --compare A B")

    root = args.root.resolve()
    if args.workloads:
        names = args.workloads.split(",")
    else:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "perfbench"))
    import workloads  # puts root/src first on sys.path and checks it won

    from falsify import run, verify

    cells = 0
    for name in names:
        h = hashlib.sha256()
        for seed in parse_seeds(args.seeds):
            for item in workloads.workload_inputs(workloads.WORKLOADS[name], seed):
                cell_h = hashlib.sha256()
                outcome = feed_cell(Tee(h, cell_h), item, run, verify, workloads.EPS4)
                if args.cells:
                    print(f"{name} {seed} {item.cell.name} {outcome} {cell_h.hexdigest()[:12]}")
                cells += 1
        print(f"{name} {h.hexdigest()}", flush=True)
    print(f"cells {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
