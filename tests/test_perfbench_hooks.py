"""The benchmark's tracer swaps library names for timed wrappers at run time.

A refactor that renames or removes one of those names breaks `--trace 1`
without failing any library test; this module catches that.  It imports
`perfbench/tracing.py` as it stands and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import falsify.integrate
import falsify.sqp
from falsify.hessian import HessianApprox, init_identity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_tracer_patches_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    assert tracing.SPANS
    for owner, attr, _ in tracing.SPANS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
    assert callable(falsify.sqp.line_search)
    assert callable(HessianApprox.update)
    assert init_identity("full", 1, 1).skip_count == 0
    assert callable(falsify.integrate.numba_path_enabled)
