"""The benchmark's tracer swaps library names for timed wrappers at run time,
and its workloads build their inputs from library calls.

A refactor that renames or removes one of those names, or changes one of
those signatures, breaks the benchmark without failing any library test;
this module catches that.  It imports `perfbench/tracing.py` and
`perfbench/workloads.py` as they stand and changes nothing there.
"""

import importlib
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

import falsify.integrate
import falsify.sqp
from falsify import run
from falsify.bench import BenchSpec, generate_instance, initial_guess
from falsify.formulation import Formulation
from falsify.hessian import HessianApprox, init_identity
from falsify.shooting import pack
from falsify.sqp import SqpConfig

from oracles import benchmark2_instance, singular_kkt_on_third_solve

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
    its span empty here while the run still succeeds.  The initial point is
    integrated through `sqp.evaluate_segments`, and every alpha the line
    search tests exactly once, in a ladder batch of `sqp.evaluate_many`;
    `sqp.trial_evals` counts the alphas tested, not the lanes integrated."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    integrated, tested, ladder = Counter(), [], []

    def recording(name, record):
        original = getattr(falsify.sqp, name)

        def wrapped(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(falsify.sqp, name, wrapped)

    def one(instance, vec, *_):
        integrated[pack(vec).tobytes()] += 1

    def many(instance, vecs, *_):
        ladder.append(len(vecs))
        integrated.update(pack(vec).tobytes() for vec in vecs)

    recording("evaluate_segments", one)
    recording("evaluate_many", many)
    # F + R is computed once per vector the run uses: the start and each alpha tested
    recording("objective_value", lambda form, instance, vec, *_: tested.append(pack(vec).tobytes()))
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
    assert ladder and max(ladder) > 1
    assert tracer.calls["shooting.evaluate_segments"] == 1
    assert tracer.counts["sqp.trial_evals"] == len(tested) - 1
    assert all(integrated[vec] == 1 for vec in tested)
    assert sum(integrated.values()) == tracer.calls["shooting.evaluate_segments"] + sum(ladder)


def test_traced_smoke_cell_matches_the_plain_run(monkeypatch):
    """The traced pass solves on `counting_system`, a copy of the system
    whose rhs and Jacobian count their calls, and gives the plain pass's
    bits: on the smoke cell and on the first backtrack cell, whose searches
    integrate ladder batches of several vectors in the traced pass too.  The
    benchmark fails a run whose traced and plain passes differ."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    ladder = []
    evaluate_many = falsify.sqp.evaluate_many

    def recording(instance, vecs, *args):
        ladder.append(len(vecs))
        return evaluate_many(instance, vecs, *args)

    monkeypatch.setattr(falsify.sqp, "evaluate_many", recording)
    for cell in workloads.WORKLOADS["smoke"].cells + workloads.WORKLOADS["backtrack"].cells[:1]:
        item = workloads.make_inputs(cell, 0, 0)
        plain = run(item.formulation, item.instance, item.guess, item.config)
        tracer = tracing.Tracer()
        counted = tracing.counting_system(item.instance, tracer)
        ladder.clear()
        with tracing.installed(tracer):
            traced = run(item.formulation, counted, item.guess, item.config)
        assert traced.nit == plain.nit > 0
        assert traced.final_X.states.tobytes() == plain.final_X.states.tobytes()
        assert traced.final_X.times.tobytes() == plain.final_X.times.tobytes()
        assert len(traced.trace) == len(plain.trace)
        for ours, theirs in zip(traced.trace, plain.trace):
            for field in fields(ours):
                a, b = getattr(ours, field.name), getattr(theirs, field.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        assert tracer.counts["systems.rhs.calls"] > 0
        assert tracer.counts["systems.jac.calls"] > 0
    assert max(ladder) > 1


def test_workload_inputs_are_the_stock_instance(monkeypatch):
    """Seed-0 inputs go through `make_system`, `perturbation` and
    `initial_guess(..., u=...)`; the stock instance they must equal goes
    through `BenchSpec(system, dims, segs, form).horizon` and
    `generate_instance(spec, dim, N)`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    (cell,) = workloads.WORKLOADS["smoke"].cells
    ours = workloads.make_inputs(cell, 0, 0)
    spec = BenchSpec(cell.system, (cell.dim,), (cell.n_segments,), ours.formulation)
    stock = generate_instance(spec, cell.dim, cell.n_segments)
    guess = initial_guess(stock, cell.n_segments, spec.horizon)
    np.testing.assert_array_equal(ours.instance.init.center, stock.init.center)
    np.testing.assert_array_equal(ours.instance.unsafe_set.center, stock.unsafe_set.center)
    np.testing.assert_array_equal(ours.guess.states, guess.states)
    np.testing.assert_array_equal(ours.guess.times, guess.times)
    assert ours.config == SqpConfig()


def test_solve_pass_counts_a_singular_kkt_run_as_not_found(monkeypatch):
    """A run that ends in SingularSystem is an outcome of the benchmark's
    `solve_pass` like S2 or S3: not found, with its termination and
    iterations, and not an exception."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    bench_run = importlib.import_module("run")
    (cell,) = workloads.WORKLOADS["smoke"].cells
    singular_kkt_on_third_solve(monkeypatch)
    _, (outcome,), _ = bench_run.solve_pass([workloads.make_inputs(cell, 0, 0)])
    assert (outcome.nit, outcome.status, outcome.found) == (2, "SingularSystem", False)
