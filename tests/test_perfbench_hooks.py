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
from falsify.bench import initial_guess
from falsify.formulation import Formulation
from falsify.hessian import HessianApprox, init_identity
from falsify.sqp import SqpConfig

from oracles import benchmark2_instance

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


def test_traced_run_records_every_patched_call(monkeypatch):
    """A name bound at import instead of looked up at call time would leave
    its span empty here while the run still succeeds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    instance = benchmark2_instance(n_segments=3)
    with tracing.installed(tracing.Tracer()) as tracer:
        report = falsify.sqp.run(
            Formulation.by_name("eq8"), instance, initial_guess(instance, 3), SqpConfig()
        )
    assert report.nit > 0
    for name in (
        "shooting.evaluate_segments",
        "formulation.constraint_jacobian",
        "formulation.lagrangian_gradient",
        "kkt.solve_ppcg",
        "integrate.flow_with_sensitivity",
        "hessian.update",
        "sqp.line_search",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["sqp.trial_evals"] == tracer.calls["shooting.evaluate_segments"] - 1
