"""The bitwise iterate gate, `tests/iterate_digest.py`, still runs.

It imports `perfbench/workloads.py` and the library by name, so a rename on
either side would break it without failing any other test.
"""

import hashlib
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from falsify.shooting import ShootingVector
from falsify.sqp import Attempt, RunReport, Termination
from iterate_digest import feed_cell

ROOT = Path(__file__).resolve().parents[1]


def run_digest(*args):
    command = [sys.executable, str(ROOT / "tests" / "iterate_digest.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=120)


def digest(*args):
    done = run_digest(str(ROOT), *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_smoke_digest_is_reproducible():
    lines = digest("--seeds", "0", "--workloads", "smoke")
    assert len(lines) == 2
    assert re.fullmatch(r"smoke [0-9a-f]{64}", lines[0])
    assert lines[1] == "cells 1"
    assert digest("--seeds", "0", "--workloads", "smoke") == lines


def test_cells_flag_names_each_cell():
    lines = digest("--seeds", "0", "--workloads", "smoke", "--cells")
    assert len(lines) == 3
    assert re.fullmatch(
        r"smoke 0 benchmark2-n3-N5-eq8-full-ppcg \d+ S\d_\w+ [0-9a-f]{12}", lines[0]
    )
    assert lines[1:] == digest("--seeds", "0", "--workloads", "smoke")


def test_compare_names_each_cell_whose_outcome_moved(tmp_path):
    """Two listings that differ only in cell hashes compare equal; a changed
    nit, a changed termination and a cell-seed on one side only are each
    printed, and make the exit code 1."""
    listing = digest("--seeds", "0", "--workloads", "smoke", "--cells")
    workload, seed, cell, nit, termination, cell_hash = listing[0].split()

    def write(name, *rows):
        path = tmp_path / name
        path.write_text("".join(f"{workload} {' '.join(row)}\n" for row in rows) + "cells 2\n")
        return str(path)

    before = write(
        "before.txt",
        (seed, cell, nit, termination, cell_hash),
        ("1", cell, nit, termination, cell_hash),
    )
    rehashed = write(
        "rehashed.txt",
        (seed, cell, nit, termination, "0" * 12),
        ("1", cell, nit, termination, "1" * 12),
    )
    done = run_digest("--compare", before, rehashed)
    assert done.returncode == 0, done.stdout
    assert done.stdout.splitlines() == ["0 of 2 cell-seeds differ in nit or termination"]

    moved = write(
        "moved.txt",
        (seed, cell, str(int(nit) + 1), termination, cell_hash),
        ("1", cell, nit, "S3_step_too_small", cell_hash),
        ("2", cell, nit, termination, cell_hash),
    )
    done = run_digest("--compare", before, moved)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        f"{workload} {seed} {cell}: {nit} {termination} -> {int(nit) + 1} {termination}",
        f"{workload} 1 {cell}: {nit} {termination} -> {nit} S3_step_too_small",
        f"{workload} 2 {cell}: missing -> {nit} {termination}",
        "3 of 3 cell-seeds differ in nit or termination",
    ]


@pytest.mark.parametrize(
    "change", [{"hessian_skips": 3}, {"last_attempt": Attempt("ppcg", 2, 0.5, 1.0, -1.0)}]
)
def test_report_skips_and_last_attempt_are_hashed(change):
    """Two stub runs whose reports differ only in the BFGS skip count, or
    only in the failing-iteration record, give different cell hashes; the
    same report twice gives the same hash."""
    vec = ShootingVector(np.zeros((2, 1)), np.ones(2))
    report = RunReport(4, Termination.S3_STEP_TOO_SMALL, vec, 1.5, 0.0, (), np.zeros(1))
    item = SimpleNamespace(
        cell=SimpleNamespace(name="stub"), formulation=None, instance=None, guess=None, config=None
    )
    checked = SimpleNamespace(
        ok=False, reasons=("unsafe_boundary",), init_distance=0.5, unsafe_distance=1.5
    )

    def cell_hash(stub_report):
        h = hashlib.sha256()
        feed_cell(h, item, lambda *args: stub_report, lambda *args: checked, 1e-6)
        return h.hexdigest()

    assert cell_hash(report) == cell_hash(replace(report))
    assert cell_hash(report) != cell_hash(replace(report, **change))
