"""The bitwise iterate gate, `tests/iterate_digest.py`, still runs.

It imports `perfbench/workloads.py` and the library by name, so a rename on
either side would break it without failing any other test.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(*args):
    command = [sys.executable, str(ROOT / "tests" / "iterate_digest.py"), str(ROOT), *args]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
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
