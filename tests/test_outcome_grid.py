"""The outcome grid tool, `tests/outcome_grid.py`, still runs and compares.

It imports the library from the checkout it is given, so a rename there
would break it without failing any other test.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import outcome_grid

ROOT = Path(__file__).resolve().parents[1]
# in grid order; the benchmark1 cell ends "F", so its reasons are recorded
CELLS = [
    "benchmark1-n4-N5-eq11-full",
    "benchmark2-n3-N5-eq8-full",
    "benchmark3-n2-N5-eq5-blockdiag",
]


def grid_tool(*args):
    command = [sys.executable, str(ROOT / "tests" / "outcome_grid.py"), *map(str, args)]
    return subprocess.run(command, capture_output=True, text=True, timeout=120)


def test_grid_cells_run_and_compare_equal(tmp_path):
    out = tmp_path / "GRID_a.json"
    done = grid_tool(ROOT, "--out", out, "--cells", ",".join(CELLS))
    assert done.returncode == 0, done.stderr
    grid = json.loads(out.read_text())
    assert list(grid["cells"]) == CELLS
    for cell in grid["cells"].values():
        assert cell["nit"] > 0 and cell["status"] in ("1", "2", "3", "F")
        assert (cell["status"] == "F") == bool(cell["reasons"])
        assert sum(cell["rungs"].values()) == cell["nit"]
    done = grid_tool("--compare", out, out)
    assert done.returncode == 0, done.stderr
    assert "full: 2 cells" in done.stdout and "blockdiag: 1 cells" in done.stdout
    assert "nit:" not in done.stdout


def record(nit, status, reasons=()):
    return {"nit": nit, "status": status, "reasons": list(reasons), "wall_s": 1.0}


def test_compare_flags_a_worse_full_digit_and_a_lost_blockdiag_cell():
    before = {
        "total_wall_s": 4.0,
        "cells": {
            "s-n2-N5-eq5-full": record(10, "1"),
            "s-n2-N5-eq6-full": record(40, "F", ["unsafe_boundary"]),
            "s-n2-N5-eq5-blockdiag": record(12, "1"),
            "s-n2-N5-eq6-blockdiag": record(50, "F", ["unsafe_boundary"]),
        },
    }
    better = copy.deepcopy(before)
    better["cells"]["s-n2-N5-eq6-full"] = record(30, "1")
    better["cells"]["s-n2-N5-eq5-blockdiag"] = record(99, "3")
    lines, worse = outcome_grid.compare(before, better)
    assert not worse
    assert "  better: s-n2-N5-eq6-full F unsafe_boundary -> S1" in lines
    assert "  nit: s-n2-N5-eq6-full 40 -> 30 (-10)" in lines
    assert not any("eq5-blockdiag" in line for line in lines)

    lines, worse = outcome_grid.compare(better, before)
    assert worse and "  worse: s-n2-N5-eq6-full S1 -> F unsafe_boundary" in lines

    lost = copy.deepcopy(before)
    lost["cells"]["s-n2-N5-eq5-blockdiag"] = record(12, "F", ["negative_length"])
    lines, worse = outcome_grid.compare(before, lost)
    assert worse and "blockdiag: 2 cells, found 1 -> 0" in lines
    assert "  lost: s-n2-N5-eq5-blockdiag S1 -> F negative_length" in lines
