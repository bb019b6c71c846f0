"""Command-line interface: subcommands, outputs, exit codes."""

import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from nura import bundled_scenario_path, bundled_schedule_path, centralized_solve, scenario
from nura.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_SCENARIO = """\
description: two log apps
R: 6.0
users:
  - id: alpha
    class: regular
    beta: 1.0
    apps:
      - utility: {kind: logarithmic, k: 1.0, r_max: 20.0}
        weight: 1.0
  - id: beta_user
    class: regular
    beta: 1.0
    apps:
      - utility: {kind: logarithmic, k: 2.0, r_max: 15.0}
        weight: 1.0
"""


def test_run_prints_allocation(capsys):
    code = main(["run", "--scenario", str(bundled_scenario_path())])
    out = capsys.readouterr().out
    assert code == 0
    assert "case = targets_below_capacity" in out
    assert "ue1" in out and "final price" in out


def test_run_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(
        ["run", "--scenario", str(bundled_scenario_path()), "--trace", str(trace)]
    )
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header == "R,round,user_id,bid,price"


def test_sweep_writes_csvs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--scenario", str(bundled_scenario_path()),
            "--r-start", "10", "--r-end", "30", "--r-step", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    allocations = (out / "allocations.csv").read_text().splitlines()
    assert len(allocations) == 1 + 3 * 4
    assert (out / "app_allocations.csv").exists()


def test_schedule_writes_epoch_files(tmp_path, capsys):
    out = tmp_path / "epochs"
    code = main(
        [
            "schedule",
            "--scenario", str(bundled_scenario_path()),
            "--schedule", str(bundled_schedule_path()),
            "--out", str(out),
        ]
    )
    assert code == 0
    for index in (1, 2, 3):
        assert (out / f"epoch_{index:02d}_allocations.csv").exists()
        assert (out / f"epoch_{index:02d}_app_allocations.csv").exists()


def test_validate_passes_reference_cell(capsys):
    code = main(
        ["validate", "--scenario", str(bundled_scenario_path()), "--r", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out


def test_validate_reports_grid_for_small_scenarios(tmp_path, capsys):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(TINY_SCENARIO)
    code = main(["validate", "--scenario", str(scenario), "--grid-step", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid search" in out


def test_validate_skips_a_grid_past_its_bound(tmp_path, capsys, monkeypatch):
    # Three apps at R = 200 and step 0.01: 200 030 001 grid points, counted
    # up to the first first-row value past 10^6.
    scenario = tmp_path / "three.yaml"
    scenario.write_text(TINY_SCENARIO.replace("weight: 1.0\n", """weight: 0.5
      - utility: {kind: sigmoidal, a: 1.0, b: 6.0}
        weight: 0.5
""", 1))

    def called(rows, rates):
        raise AssertionError("the grid was enumerated")

    monkeypatch.setattr("nura.oracle.objective", called)
    code = main(["validate", "--scenario", str(scenario), "--r", "200", "--grid-step", "0.01"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line for line in lines if "grid search" in line] == [
        "grid search skipped: grid search is guarded to 1000000 points, got at least 1018776 "
        "at step 0.01"]
    assert lines[-1].startswith("OK")


def test_validate_fails_on_impossible_tolerance(capsys, monkeypatch):
    # The two exact solvers agree to rounding, which no tolerance may
    # rely on; the reference is moved 1e-6 off, far past the 1e-12.
    def shifted(users, capacity):
        result = centralized_solve(users, capacity)
        return replace(result, user_rates={**result.user_rates,
                                           "ue1": result.user_rates["ue1"] + 1e-6})

    monkeypatch.setattr("nura.oracle.centralized_solve", shifted)  # validate's import
    code = main(
        [
            "validate",
            "--scenario", str(bundled_scenario_path()),
            "--r", "100",
            "--tol", "1e-12",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" in captured.err
    # The patched reference: the solvers' own gap at R = 100 is rounding.
    deviation = float(captured.out.rsplit("centralized solver = ", 1)[1])
    assert abs(deviation - 1e-6) <= 1e-9


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol, capsys):
    # Every comparison with nan is false, so "--tol nan" would pass any deviation.
    code = main(["validate", "--scenario", str(bundled_scenario_path()), "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tol" in captured.err and "OK" not in captured.out


@pytest.mark.parametrize("flag, value", [("--r-end", "inf"), ("--r-step", "nan")])
def test_sweep_with_a_non_finite_bound_is_validation_error(flag, value, tmp_path, capsys):
    argv = ["sweep", "--scenario", str(bundled_scenario_path()), "--out", str(tmp_path / "o")]
    code = main(argv + [flag, value])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_past_the_point_limit_is_validation_error(tmp_path, capsys, monkeypatch):
    def point(config, keep_trace=False):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(scenario, "run_once", point)
    argv = ["sweep", "--scenario", str(bundled_scenario_path()), "--out", str(tmp_path / "o"),
            "--r-end", "1e300", "--r-step", "1"]
    assert main(argv) == 2
    assert "at most" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_scenario_is_io_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.yaml")])
    assert code == 4
    assert "I/O error" in capsys.readouterr().err


def test_invalid_scenario_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("R: -5\nusers: []\n")
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_a_scenario_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(TINY_SCENARIO.replace("two log apps", "caf\xe9").encode("latin-1"))
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("validation error: ")


# Runs the CLI as `python -m nura` does, with the scenario reader's loader
# chosen by name.
_RUN_WITH_LOADER = """
import sys
sys.path.insert(0, sys.argv[1])
import yaml
from nura import cli, scenario
scenario._YAML_LOADER = getattr(yaml, sys.argv[2])
sys.exit(cli.main(sys.argv[3:]))
"""


def _run_with_loader(yaml_loader, *args):
    return subprocess.run(
        [sys.executable, "-c", _RUN_WITH_LOADER, str(SRC), yaml_loader, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_a_scenario_nested_100000_deep_is_validation_error(yaml_loader, tmp_path):
    # Unbounded, the Python composer ends in a RecursionError and the C
    # one in SIGSEGV (at 50 000 levels); a subprocess keeps a crash out of
    # pytest.
    deep = tmp_path / "deep.yaml"
    deep.write_text("R: " + "[" * 100_000 + "]" * 100_000 + "\n")
    result = _run_with_loader(yaml_loader, "run", "--scenario", str(deep))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("validation error: ") and "nested" in result.stderr
    assert "Traceback" not in result.stderr


def test_a_chain_of_3000_aliases_as_r_is_validation_error(yaml_loader, tmp_path):
    # Each anchor holds a list of the one before, so R is a list nested 3000
    # deep that the nesting bound, which reads the text, never sees; quoting
    # it whole ended in a RecursionError traceback (exit 1).
    chain = ", ".join(["&a0 [1]"] + [f"&a{i} [*a{i - 1}]" for i in range(1, 3000)])
    path = tmp_path / "chain.yaml"
    path.write_text(f"chain: [{chain}]\nR: *a2999\nusers: []\n")
    result = _run_with_loader(yaml_loader, "run", "--scenario", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("validation error: ") and "R: expected a number" in result.stderr
    assert "Traceback" not in result.stderr


def test_an_alias_bomb_as_r_is_reported_in_a_few_lines(yaml_loader, tmp_path):
    # Four levels of ten aliases: a file of about 300 bytes whose R quoted
    # whole wrote 322 KB to stderr, ten times more per further level.
    lines = ["x0: &x0 [" + ", ".join(["1"] * 10) + "]"]
    lines += [f"x{i}: &x{i} [" + ", ".join([f"*x{i - 1}"] * 10) + "]" for i in range(1, 5)]
    path = tmp_path / "bomb.yaml"
    path.write_text("\n".join(lines) + "\nR: *x4\nusers: []\n")
    result = _run_with_loader(yaml_loader, "run", "--scenario", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("validation error: ") and "R: expected a number" in result.stderr
    assert len(result.stderr.encode()) < 4096


_CERTIFIER_LOADS_ONLY_TO_VALIDATE = """
import sys
sys.path.insert(0, sys.argv[1])
from nura.cli import main
assert main(["run", "--scenario", sys.argv[2]]) == 0
assert "nura.oracle" not in sys.modules
assert main(["validate", "--scenario", sys.argv[2]]) == 0
assert "nura.oracle" in sys.modules
"""


def test_run_leaves_the_certifier_unloaded_and_validate_loads_it():
    result = subprocess.run(
        [sys.executable, "-c", _CERTIFIER_LOADS_ONLY_TO_VALIDATE, str(SRC),
         str(bundled_scenario_path())],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


STARVED_SCENARIO = """\
R: 40.0
protocol: {max_rounds: 5}
users:
  - id: v
    class: vip
    beta: 1.0
    apps:
      - utility: {kind: sigmoidal, a: 1.0, b: 30.0}
        weight: 1.0
        target_rate: 50.0
"""

# One sigmoid whose demand saturates below R = 191 at every price: a solver
# error, not a failure to converge.
SATURATING_SCENARIO = """\
R: 191.0
users:
  - id: u
    class: regular
    beta: 1.0
    apps:
      - utility: {kind: sigmoidal, a: 10.0, b: 23.4}
        weight: 1.0
"""


def test_round_limit_is_convergence_error(tmp_path, capsys):
    scenario = tmp_path / "starved.yaml"
    scenario.write_text(STARVED_SCENARIO)
    code = main(["run", "--scenario", str(scenario)])
    assert code == 3
    assert "convergence error" in capsys.readouterr().err


@pytest.mark.parametrize("text, capacity, code, prefix", [
    (STARVED_SCENARIO, "40", 3, "convergence error: "),
    (SATURATING_SCENARIO, "191", 2, "error: "),
], ids=["starved", "saturating"])
def test_a_failed_sweep_exits_as_run_does_on_its_points(text, capacity, code, prefix, tmp_path,
                                                       capsys):
    """A sweep exits 3 only when every failed point failed to converge, and
    otherwise 2 with the "error:" prefix that run prints for the same cell."""
    scenario = tmp_path / "cell.yaml"
    scenario.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        assert main(["run", "--scenario", str(scenario)]) == code
        assert main(["sweep", "--scenario", str(scenario), "--r-start", capacity,
                     "--r-end", capacity, "--r-step", "1", "--out", str(tmp_path / "out")]) == code
    run_err, sweep_err = capsys.readouterr().err.strip().split("\n")
    assert run_err.startswith(prefix) and sweep_err.startswith(prefix)
    assert f"1 of 1 sweep points failed: R={capacity}: " in sweep_err


def test_a_failed_sweep_writes_the_points_that_solved(tmp_path, capsys):
    """The saturating cell swept from 20 to 191 by 57 solves R = 20 alone:
    both CSV files hold that point, and the sweep still exits 2, listing
    the three failed points."""
    scenario = tmp_path / "cell.yaml"
    scenario.write_text(SATURATING_SCENARIO)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scenario), "--r-start", "20", "--r-end", "191",
                 "--r-step", "57", "--out", str(out)]) == 2
    allocations = (out / "allocations.csv").read_text().splitlines()
    assert allocations[0].startswith("R,") and len(allocations) == 2
    assert allocations[1].startswith("20,")
    apps = (out / "app_allocations.csv").read_text().splitlines()
    assert apps[1:] == ["20,u,1,20"]
    captured = capsys.readouterr()
    assert "1 runs written to" in captured.out
    warning, error = captured.err.strip().split("\n")
    assert warning.startswith("warning: capacity 191.0 exceeds the combined saturation scale")
    assert error.startswith("error: 3 of 4 sweep points failed: R=77: ")


def test_warnings_are_printed_as_one_line_each(tmp_path):
    """The saturation warning of a scenario file is one "warning:" line,
    without the path, line number and source line of Python's format."""
    scenario = tmp_path / "cell.yaml"
    scenario.write_text(SATURATING_SCENARIO)
    result = subprocess.run(
        [sys.executable, "-m", "nura", "run", "--scenario", str(scenario)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert [line for line in lines if line.startswith("warning: ")] == [
        "warning: capacity 191.0 exceeds the combined saturation scale 24.4; "
        "allocations beyond 100% utilization are plausible"
    ]
    assert len(lines) == 2 and lines[1].startswith("error: demand saturates")
    assert "scenario.py" not in result.stderr


def test_unwritable_output_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # a file where the directory should go
    code = main(
        [
            "sweep",
            "--scenario", str(bundled_scenario_path()),
            "--r-start", "10", "--r-end", "10", "--r-step", "5",
            "--out", str(blocker),
        ]
    )
    assert code == 4
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("nura") is None, reason="console script not on PATH")
def test_console_script_entry_point():
    result = subprocess.run(
        ["nura", "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "validate" in result.stdout


def test_module_entry_point():
    """python -m nura works where the console script is not installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "nura", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "validate" in result.stdout
