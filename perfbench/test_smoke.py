"""Smoke test of the benchmark on its smallest cell.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np

import run
import workloads
from falsify import generate_instance, initial_guess
from falsify.bench import BenchSpec
from falsify.formulation import Formulation

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def bench(trace):
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke", "--seed", "3"]
    done = subprocess.run(
        command + ["--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_end_to_end_metric_prints_with_its_unit():
    result = bench(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_prints_with_its_unit():
    result = bench(1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["sqp.trial_evals"]["value"] > 0


def test_seed_zero_is_the_stock_bench_instance():
    for workload in workloads.WORKLOADS.values():
        for index, cell in enumerate(workload.cells):
            ours = workloads.make_inputs(cell, 0, index)
            form = Formulation.by_name(cell.formulation)
            spec = BenchSpec(cell.system, (cell.dim,), (cell.n_segments,), form)
            stock = generate_instance(spec, cell.dim, cell.n_segments)
            guess = initial_guess(stock, cell.n_segments, spec.horizon)
            np.testing.assert_array_equal(ours.instance.init.center, stock.init.center)
            np.testing.assert_array_equal(ours.instance.unsafe_set.center, stock.unsafe_set.center)
            np.testing.assert_array_equal(ours.guess.states, guess.states)
            np.testing.assert_array_equal(ours.guess.times, guess.times)


def test_tampered_results_fail_the_check():
    inputs = workloads.workload_inputs(workloads.WORKLOADS["smoke"], 5)
    passes = [run.solve_pass(inputs)[1] for _ in range(2)]
    assert run.check_results(inputs, [passes]) == (0, False, [])

    outcome = passes[1][0]
    moved = replace(outcome.final_X, states=outcome.final_X.states + 0.5)
    differ = [passes[0], [replace(outcome, final_X=moved)]]
    failed, incorrect, messages = run.check_results(inputs, [differ])
    assert incorrect and failed == 2 and "differ" in messages[0]

    tampered = [[replace(outcome, final_X=moved)] for _ in range(2)]
    failed, incorrect, messages = run.check_results(inputs, [tampered])
    assert incorrect and failed == 2 and "re-verification" in messages[0]

    lost = [[outcome], [replace(outcome, found=False, status="S3_step_too_small")]]
    failed, incorrect, messages = run.check_results(inputs, [lost])
    assert not incorrect and failed == 1 and inputs[0].cell.name in messages[0]
