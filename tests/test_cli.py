"""Tests for the command-line interface: config handling, commands, outputs."""

import json
import os
import subprocess
import sys
from argparse import Namespace
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from falsify.bench import BenchSpec
from falsify.cli import load_config, main
from falsify.formulation import FORMULATION_NAMES, Formulation
from falsify.integrate import IntegratorConfig
from falsify.sqp import SqpConfig, TraceRecord

from oracles import singular_kkt_on_third_solve


def run_cli(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text)
    return str(path)


def test_solve_default_configuration(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve") == 0
    out = capsys.readouterr().out
    assert "S1_converged" in out
    assert "verified" in out
    report = (tmp_path / "report.json").read_text().splitlines()
    assert report[0].startswith("#")
    payload = json.loads("\n".join(report[1:]))
    assert payload["formulation"] == "eq8"
    assert payload["termination"] == "S1_converged"
    assert payload["verified"] is True
    assert payload["segments"] == 5
    assert len(payload["final_times"]) == 5
    assert payload["hessian_skips"] == 0


def test_solve_reports_the_skipped_bfgs_updates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--hessian", "blockdiag") == 0
    report = (tmp_path / "report.json").read_text().splitlines()
    assert json.loads("\n".join(report[1:]))["hessian_skips"] > 0


def test_solve_report_is_deterministic_modulo_timestamp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(
        tmp_path / "cfg.ini",
        "[output]\nreport = first.json\n",
    )
    assert run_cli("solve", "--config", config) == 0
    config2 = write(
        tmp_path / "cfg2.ini",
        "[output]\nreport = second.json\n",
    )
    assert run_cli("solve", "--config", config2) == 0
    first = (tmp_path / "first.json").read_text().splitlines()
    second = (tmp_path / "second.json").read_text().splitlines()
    assert first[1:] == second[1:]


def test_solve_exit_one_when_solved_but_unverified(tmp_path, monkeypatch):
    """The duration-regularized gap formulation on the plain rotation tends
    to a stationary point with negative durations: converged yet invalid."""
    monkeypatch.chdir(tmp_path)
    config = write(
        tmp_path / "cfg.ini",
        "[problem]\nsystem = benchmark3\ndim = 2\nsegments = 5\n",
    )
    code = run_cli("solve", "--config", config, "--formulation", "eq10")
    assert code == 1
    payload = json.loads(
        "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    )
    assert payload["termination"] == "S1_converged"
    assert payload["verified"] is False
    assert "negative_length" in payload["verify_reasons"]


def test_solve_exit_two_on_iteration_budget(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "cfg.ini", "[sqp]\nmax_iter = 0\n")
    assert run_cli("solve", "--config", config) == 2
    payload = json.loads(
        "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    )
    assert payload["termination"] == "S2_maxit"
    assert payload["last_attempt"] is None


def test_solve_exit_two_on_singular_kkt(tmp_path, monkeypatch, capsys):
    # a run that no KKT rung can step from on its third iteration exits 2
    # and still writes its report and its two iterations' trace
    singular_kkt_on_third_solve(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--trace", "trace.jsonl") == 2
    assert capsys.readouterr().err == ""
    payload = json.loads(
        "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    )
    assert payload["termination"] == "SingularSystem"
    assert payload["nit"] == 2
    assert payload["last_attempt"] == {
        "kkt_rung": None,
        "cg_iterations": 0,
        "alpha_start": None,
        "merit_zero": None,
        "merit_slope": None,
    }
    assert payload["verified"] is False
    assert payload["verify_reasons"] == ["singular_kkt"]
    trace = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert [json.loads(line)["iteration"] for line in trace] == [0, 1]


def test_failure_report_is_strict_json(tmp_path, monkeypatch):
    """An integrator budget of one step fails at the initial point; the
    report's non-finite values are written as null, not NaN or Infinity."""
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "cfg.ini", "[sqp]\nmax_steps = 1\n")
    assert run_cli("solve", "--config", config) == 2

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    body = "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    payload = json.loads(body, parse_constant=reject)
    assert payload["termination"] == "IntegrationFailure"
    assert payload["verify_reasons"] == ["integration_failure"]
    assert payload["final_objective"] is None


def test_every_problem_and_sqp_key_reaches_its_field(tmp_path):
    """Each [problem] and [sqp] key, set away from the value the command
    line uses without a config, arrives in BenchSpec, SqpConfig or
    IntegratorConfig as exactly that value."""
    flags = dict(formulation=None, hessian=None, kkt=None, trace=None, dump_trajectory=None)
    config = write(
        tmp_path / "all.ini",
        "[problem]\nsystem = benchmark3\ndim = 2, 4\nsegments = 3,7\n"
        "horizon = 4.5\nradius = 0.125\neps4 = 2e-4\n"
        "[sqp]\nomega = 2.5\ndelta = 0.01\neps1 = 1e-4\neps2 = 1e-9\neps3 = 1e-7\n"
        "max_iter = 77\nbacktrack_factor = 0.25\nhessian = blockdiag\nkkt = direct\n"
        "rel_tol = 1e-8\nabs_tol = 1e-7\nmax_steps = 1234\n",
    )
    cfg = load_config(Namespace(config=config, **flags))
    default = load_config(Namespace(config=None, **flags))
    assert cfg.spec == BenchSpec(
        "benchmark3",
        (2, 4),
        (3, 7),
        Formulation.by_name("eq8"),
        horizon=4.5,
        radius=0.125,
        eps4=2e-4,
    )
    assert cfg.sqp == SqpConfig(
        omega=2.5,
        delta=0.01,
        eps1=1e-4,
        eps2=1e-9,
        eps3=1e-7,
        max_iter=77,
        backtrack_factor=0.25,
        hessian_variant="blockdiag",
        kkt_method="direct",
        integrator=IntegratorConfig(rel_tol=1e-8, abs_tol=1e-7, max_steps=1234),
    )
    # every field was set, not left at its default
    pairs = [(cfg.spec, default.spec), (cfg.sqp, default.sqp)]
    pairs.append((cfg.sqp.integrator, default.sqp.integrator))
    for given, unset in pairs:
        for f in fields(given):
            if f.name not in ("formulation", "integrator"):
                assert getattr(given, f.name) != getattr(unset, f.name), f.name


def test_unknown_config_key_names_the_key(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[problem]\nsegmants = 5\n")
    assert run_cli("solve", "--config", config) == 64
    err = capsys.readouterr().err
    assert "segmants" in err
    assert "[problem]" in err


def test_unknown_section_rejected(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[solver]\nmax_iter = 10\n")
    assert run_cli("solve", "--config", config) == 64
    assert "solver" in capsys.readouterr().err


def test_malformed_value_rejected(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[problem]\nsegments = five\n")
    assert run_cli("solve", "--config", config) == 64
    assert "segments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, text",
    [("output", "report", "report = 100%.json"), ("problem", "horizon", "horizon = %(x)s")],
    ids=["lone-percent", "missing-key"],
)
def test_value_interpolation_errors_name_the_key(tmp_path, monkeypatch, capsys, section, key, text):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "bad.ini", f"[{section}]\n{text}\n")
    assert run_cli("solve", "--config", config) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{section}.{key}" in err
    assert not (tmp_path / "report.json").exists()


def test_valid_interpolations_keep_their_meaning(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = dict(formulation=None, hessian=None, kkt=None, trace=None, dump_trajectory=None)
    config = write(
        tmp_path / "ok.ini", "[output]\ntable = grid.csv\nreport = %(table)s-100%%.json\n"
    )
    cfg = load_config(Namespace(config=config, **flags))
    assert cfg.report_path == Path("grid.csv-100%.json")
    assert cfg.table_path == Path("grid.csv")


def test_missing_config_file_rejected(tmp_path, capsys):
    assert run_cli("solve", "--config", str(tmp_path / "nope.ini")) == 64
    assert "not found" in capsys.readouterr().err


def test_invalid_sqp_value_rejected(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[sqp]\ndelta = 2.0\n")
    assert run_cli("solve", "--config", config) == 64
    assert "delta" in capsys.readouterr().err
    config = write(tmp_path / "banded.ini", "[sqp]\nhessian = banded\n")
    assert run_cli("solve", "--config", config) == 64
    assert "banded" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--hessian", "banded")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize(
    "problem, key",
    [
        ("system = benchmark3\ndim = 3", "dim"),
        ("system = benchmark2\ndim = 4", "dim"),
        ("segments = 0", "segments"),
        ("radius = -1", "radius"),
        ("radius = nan", "radius"),
        ("horizon = 0", "horizon"),
        ("horizon = inf", "horizon"),
    ],
)
def test_invalid_problem_value_rejected(tmp_path, monkeypatch, capsys, command, problem, key):
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "bad.ini", f"[problem]\n{problem}\n[output]\ntable = out.csv\n")
    assert run_cli(command, "--config", config) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_unknown_formulation_name_rejected(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[formulation]\nname = eq99\n")
    assert run_cli("solve", "--config", config) == 64
    assert "eq99" in capsys.readouterr().err


def test_experimental_formulation_from_parts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write(
        tmp_path / "cfg.ini",
        "[formulation]\nobjective = combined\nregularizer = total_squared\n",
    )
    assert run_cli("solve", "--config", config) in (0, 1)
    payload = json.loads(
        "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    )
    assert payload["formulation"] == "experimental"
    assert payload["objective_kind"] == "combined"
    assert payload["regularizer"] == "total_squared"
    assert payload["constraints"] == "none"
    assert payload["termination"] == "S1_converged"


def test_bench_writes_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = write(
        tmp_path / "cfg.ini",
        "[problem]\nsystem = benchmark3\ndim = 2\nsegments = 5,10\n"
        "[output]\ntable = out.csv\n",
    )
    assert run_cli("bench", "--config", config) == 0
    content = (tmp_path / "out.csv").read_text()
    lines = content.splitlines()
    assert lines[0] == "n,N,NIT,S"
    assert len(lines) == 3
    assert all(line.startswith("2,") for line in lines[1:])
    assert "out.csv" in capsys.readouterr().out


def test_trace_and_dump_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli(
        "solve",
        "--trace",
        str(tmp_path / "trace.txt"),
        "--dump-trajectory",
        str(tmp_path / "dump.txt"),
    )
    assert code == 0
    records = [json.loads(line) for line in (tmp_path / "trace.txt").read_text().splitlines()]
    report = json.loads("\n".join((tmp_path / "report.json").read_text().splitlines()[1:]))
    assert len(records) == report["nit"] > 0
    assert [record["iteration"] for record in records] == list(range(len(records)))
    for record in records:
        assert list(record) == [field.name for field in fields(TraceRecord)]
        assert record["kkt_rung"] in ("ppcg", "direct", "lstsq")
    dump_lines = (tmp_path / "dump.txt").read_text().splitlines()
    assert any(line.startswith("# segment") for line in dump_lines)
    sample = [line for line in dump_lines if not line.startswith("#")][0]
    assert len(sample.split()) == 4  # t plus three coordinates


def test_hessian_and_kkt_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--hessian", "blockdiag", "--kkt", "direct") == 0
    payload = json.loads(
        "\n".join((tmp_path / "report.json").read_text().splitlines()[1:])
    )
    assert payload["hessian"] == "blockdiag"
    assert payload["kkt"] == "direct"


def test_check_reports_all_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check") == 0
    out = capsys.readouterr().out
    assert "objective_gradient_fd" in out
    assert "constraint_jacobian_fd" in out
    assert "kkt_ppcg_vs_direct" in out
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_check_cross_checks_unconstrained_formulations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check", "--formulation", "eq13") == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("lagrangian_gradient_fd", "kkt_ppcg_vs_direct"):
        assert any(line.startswith(f"{name}: ") and line.endswith(" PASS") for line in lines)


@pytest.mark.parametrize("name", FORMULATION_NAMES)
def test_check_verifies_the_lagrangian_gradient_of_every_formulation(
    tmp_path, monkeypatch, capsys, name
):
    """objective gradient + B lambda against the central differences of
    F + lambda^T c, with or without constraints and regularizer."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("check", "--formulation", name) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(
        line.startswith("lagrangian_gradient_fd: ") and line.endswith(" PASS") for line in lines
    )


def test_module_entry_point_reports_a_bad_key(tmp_path):
    """`python -m falsify.cli solve` with a misspelt key exits 64 naming
    the key, without a traceback."""
    config = write(tmp_path / "bad.ini", "[problem]\nsegmants = 5\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "falsify.cli", "solve", "--config", config],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert done.returncode == 64, done.stderr
    assert "segmants" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["solve", "check"])
def test_degenerate_instance_is_a_reported_failure(tmp_path, monkeypatch, capsys, command):
    """A negligible horizon puts the unsafe center on the initial one: no
    instance exists, which is a failure (exit 2), not an unverified solve."""
    monkeypatch.chdir(tmp_path)
    config = write(tmp_path / "cfg.ini", "[problem]\nhorizon = 1e-300\n")
    assert run_cli(command, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("instance generation failed:")
    assert "distinct" in err
    assert not (tmp_path / "report.json").exists()


def test_bench_writes_an_f_row_for_a_degenerate_instance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = write(
        tmp_path / "cfg.ini",
        "[problem]\nhorizon = 1e-300\nsegments = 2,3\n[output]\ntable = out.csv\n",
    )
    assert run_cli("bench", "--config", config) == 0
    assert (tmp_path / "out.csv").read_text().splitlines() == ["n,N,NIT,S", "3,2,0,F", "3,3,0,F"]
    assert "out.csv" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve", "--config", "report.ini"], "output.report"),
        (["bench", "--config", "table.ini"], "output.table"),
        (["solve", "--config", "dump.ini"], "output.dump_trajectory"),
        (["solve", "--config", "empty.ini"], "output.report"),
        (["solve", "--trace", "missing/trace.txt"], "output.trace"),
        (["solve", "--dump-trajectory", "missing/dump.txt"], "output.dump_trajectory"),
    ],
    ids=["report", "table", "dump", "empty-report", "trace-flag", "dump-flag"],
)
def test_unwritable_output_path_rejected(tmp_path, monkeypatch, capsys, argv, key):
    """Every output path is checked before the solve, not written after it:
    a path in a missing directory, or one that names a directory (an empty
    value names the working directory)."""
    monkeypatch.chdir(tmp_path)
    configs = {
        "report": "report = missing/out.json",
        "table": "table = missing/out.csv",
        "dump": "dump_trajectory = missing/out.txt",
        "empty": "report =",
    }
    for name, line in configs.items():
        write(tmp_path / f"{name}.ini", f"[output]\n{line}\n")
    assert run_cli(*argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"{name}.ini" for name in configs)
