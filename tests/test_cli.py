"""Tests for the command-line interface: config handling, commands, outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from falsify.cli import main


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
    assert payload["final_objective"] is None


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


def test_missing_config_file_rejected(tmp_path, capsys):
    assert run_cli("solve", "--config", str(tmp_path / "nope.ini")) == 64
    assert "not found" in capsys.readouterr().err


def test_invalid_sqp_value_rejected(tmp_path, capsys):
    config = write(tmp_path / "bad.ini", "[sqp]\ndelta = 2.0\n")
    assert run_cli("solve", "--config", config) == 64
    assert "delta" in capsys.readouterr().err


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
    trace_lines = (tmp_path / "trace.txt").read_text().splitlines()
    assert trace_lines[0].startswith("#")
    assert len(trace_lines) > 1
    first = trace_lines[1].split()
    assert len(first) == 8
    assert first[0] == "0"
    assert trace_lines[0].split()[-1] == "kkt_rung"
    assert first[-1] in ("ppcg", "direct", "lstsq")
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


def test_check_respects_formulation_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check", "--formulation", "eq10") == 0
    assert "PASS" in capsys.readouterr().out


def test_check_cross_checks_unconstrained_formulations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check", "--formulation", "eq13") == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("lagrangian_gradient_closed_form", "kkt_ppcg_vs_direct"):
        assert any(line.startswith(f"{name}: ") and line.endswith(" PASS") for line in lines)


def test_log_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FALSIFY_LOG", "debug")
    assert run_cli("solve") == 0


def test_unusable_log_level_falls_back_to_warning(tmp_path):
    """FALSIFY_LOG names a logging attribute that is no level (a format
    string): the run goes on at WARNING and still reports the bad key."""
    config = write(tmp_path / "bad.ini", "[problem]\nsegmants = 5\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, FALSIFY_LOG="basic_format", PYTHONPATH=str(src))
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
