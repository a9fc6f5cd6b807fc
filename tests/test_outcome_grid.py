"""The outcome grid tool, `tests/outcome_grid.py`, still runs and compares.

It imports the library from the checkout it is given, so a rename there
would break it without failing any other test.
"""

import copy
import json
import re
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


def test_jittered_runs_are_reproducible(tmp_path):
    """`--jitter 2` solves a `full` cell from the stock guess and with its
    durations one and two ulp up; a second run writes the same records,
    and the first of them is the row `falsify bench` computes for the cell.
    `blockdiag` cells are jittered the same way."""
    from falsify.bench import BenchSpec, run_table
    from falsify.formulation import Formulation
    from falsify.sqp import SqpConfig

    cell = "benchmark3-n2-N5-eq5-full"
    files = [tmp_path / "GRID_noise_a.json", tmp_path / "GRID_noise_b.json"]
    for out in files:
        done = grid_tool(ROOT, "--jitter", 2, "--out", out, "--cells", cell)
        assert done.returncode == 0, done.stderr
    first, second = (json.loads(out.read_text()) for out in files)
    assert first["jitter"] == 2 and list(first["cells"]) == [cell]
    assert first["cells"] == second["cells"]
    runs = first["cells"][cell]
    assert all(len(runs[key]) == 3 for key in ("nit", "status", "reasons"))
    spec = BenchSpec("benchmark3", (2,), (5,), Formulation.by_name("eq5"))
    (stock,) = run_table(spec, SqpConfig(hessian_variant="full"))
    assert (runs["nit"][0], runs["status"][0], runs["reasons"][0]) == (
        stock.nit, stock.status, list(stock.reasons)
    )
    block = tmp_path / "GRID_noise_block.json"
    done = grid_tool(ROOT, "--jitter", 1, "--out", block, "--cells", CELLS[2])
    assert done.returncode == 0, done.stderr
    runs = json.loads(block.read_text())["cells"][CELLS[2]]
    assert all(len(runs[key]) == 2 for key in ("nit", "status", "reasons"))
    (stock,) = run_table(spec, SqpConfig(hessian_variant="blockdiag"))
    assert (runs["nit"][0], runs["status"][0], runs["reasons"][0]) == (
        stock.nit, stock.status, list(stock.reasons)
    )


def test_compare_marks_full_changes_against_the_noise():
    """Each `full` NIT delta and digit change is marked inside or outside
    the noise file's runs of its cell, and the NIT total gets the band of
    the per-cell ranges; the verdict stays that of the cells alone."""
    before = {
        "total_wall_s": 3.0,
        "cells": {
            "s-n2-N5-eq5-full": record(10, "1"),
            "s-n2-N5-eq6-full": record(40, "1"),
            "s-n2-N5-eq7-full": record(20, "1"),
        },
    }
    after = copy.deepcopy(before)
    after["cells"]["s-n2-N5-eq5-full"] = record(12, "1")
    after["cells"]["s-n2-N5-eq6-full"] = record(90, "F", ["unsafe_boundary"])
    noise = {
        "jitter": 2,
        "cells": {
            "s-n2-N5-eq5-full": {"nit": [10, 13, 11], "status": ["1"] * 3, "reasons": [[]] * 3},
            "s-n2-N5-eq6-full": {
                "nit": [40, 70, 95],
                "status": ["1", "F", "1"],
                "reasons": [[], ["unsafe_boundary"], []],
            },
            "s-n2-N5-eq7-full": {"nit": [20, 20, 20], "status": ["1"] * 3, "reasons": [[]] * 3},
        },
    }
    plain, worse = outcome_grid.compare(before, after)
    lines, noisy_worse = outcome_grid.compare(before, after, noise)
    assert worse and noisy_worse
    assert "  nit: s-n2-N5-eq5-full 10 -> 12 (+2) (inside noise: nit 10..13)" in lines
    assert (
        "  worse: s-n2-N5-eq6-full S1 -> F unsafe_boundary"
        " (inside noise: F unsafe_boundary / S1)" in lines
    )
    assert "  nit: s-n2-N5-eq6-full 40 -> 90 (+50) (inside noise: nit 40..95)" in lines
    assert "  nit total 70 -> 122 (noise band 70..128)" in lines
    # without the marks, the lines are those of the plain comparison
    assert [re.sub(r" \((inside|outside) noise: .*\)$| \(noise band .*\)$", "", line)
            for line in lines] == plain

    narrow = copy.deepcopy(noise)
    narrow["cells"]["s-n2-N5-eq5-full"]["nit"] = [10, 11, 10]
    lines, _ = outcome_grid.compare(before, after, narrow)
    assert "  nit: s-n2-N5-eq5-full 10 -> 12 (+2) (outside noise: nit 10..11)" in lines
    del narrow["cells"]["s-n2-N5-eq7-full"]
    lines, _ = outcome_grid.compare(before, after, narrow)
    assert "  nit total 70 -> 122" in lines


def test_compare_marks_blockdiag_changes_against_the_noise():
    """The `blockdiag` found share is marked against the found shares of the
    noise file's runs at each jitter, and each cell found on one side only
    against its own runs' outcomes; the verdict stays that of the cells."""
    before = {
        "total_wall_s": 3.0,
        "cells": {
            "s-n2-N5-eq5-blockdiag": record(12, "1"),
            "s-n2-N5-eq6-blockdiag": record(50, "2"),
            "s-n2-N5-eq7-blockdiag": record(30, "F", ["unsafe_boundary"]),
        },
    }
    after = copy.deepcopy(before)
    after["cells"]["s-n2-N5-eq5-blockdiag"] = record(14, "F", ["negative_length"])
    after["cells"]["s-n2-N5-eq6-blockdiag"] = record(400, "F", ["unsafe_boundary"])
    noise = {
        "jitter": 2,
        "cells": {
            "s-n2-N5-eq5-blockdiag": {
                "nit": [12, 13, 14],
                "status": ["1", "1", "F"],
                "reasons": [[], [], ["negative_length"]],
            },
            "s-n2-N5-eq6-blockdiag": {
                "nit": [50, 60, 70], "status": ["2"] * 3, "reasons": [[]] * 3
            },
            "s-n2-N5-eq7-blockdiag": {
                "nit": [30, 31, 30],
                "status": ["F", "1", "F"],
                "reasons": [["unsafe_boundary"], [], ["unsafe_boundary"]],
            },
        },
    }
    plain, worse = outcome_grid.compare(before, after)
    lines, noisy_worse = outcome_grid.compare(before, after, noise)
    assert worse and noisy_worse
    # found 2, 3 and 1 at 0, 1 and 2 ulp
    assert "blockdiag: 3 cells, found 2 -> 0 (outside noise: found 1..3)" in lines
    assert "  lost: s-n2-N5-eq5-blockdiag S1 -> F negative_length" \
        " (inside noise: F negative_length / S1)" in lines
    assert "  lost: s-n2-N5-eq6-blockdiag S2 -> F unsafe_boundary (outside noise: S2)" in lines
    assert [re.sub(r" \((inside|outside) noise: .*\)$| \(noise band .*\)$", "", line)
            for line in lines] == plain

    after["cells"]["s-n2-N5-eq6-blockdiag"] = record(60, "2")
    lines, _ = outcome_grid.compare(before, after, noise)
    assert "blockdiag: 3 cells, found 2 -> 1 (inside noise: found 1..3)" in lines
    del noise["cells"]["s-n2-N5-eq7-blockdiag"]
    lines, _ = outcome_grid.compare(before, after, noise)
    assert "blockdiag: 3 cells, found 2 -> 1" in lines
