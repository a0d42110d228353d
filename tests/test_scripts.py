"""The experiment scripts run end to end and write the files they name."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ritzspline.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TABLES = [f"p{p}_l{l}.csv" for p in (2, 3, 4) for l in (0, 1)]
WRITES = {
    "error": [f"results/error/error_{t}" for t in TABLES] + ["results/error/error.svg"],
    "rq-diff": [f"results/rq-diff/rq-diff_{t}" for t in TABLES] + ["results/rq-diff/rq-diff.svg"],
    "schultz-gap": ["results/schultz_gap.csv"],
    "outlier-lab": [f"results/eig/spectrum.{ext}" for ext in ("csv", "json", "svg")],
}
EXPERIMENTS = runpy.run_path(str(SCRIPTS / "experiments.py"))["EXPERIMENTS"]


def written(root):
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file())


@pytest.mark.parametrize("experiment", sorted(WRITES))
def test_experiment_exits_0_and_writes_its_files(tmp_path, monkeypatch, capsys, experiment):
    monkeypatch.chdir(tmp_path)
    assert main(EXPERIMENTS[experiment]) == 0
    assert written(tmp_path) == sorted(WRITES[experiment])


def test_experiments_script_runs_every_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(SCRIPTS / "experiments.py"), run_name="__main__")
    assert written(tmp_path) == sorted(path for paths in WRITES.values() for path in paths)


def test_experiments_script_exits_with_the_first_failure(tmp_path, monkeypatch, capsys):
    """A file where every experiment puts its directory stops the first one;
    no later experiment runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").write_text("kept")
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "experiments.py"), run_name="__main__")
    assert done.value.code == 2
    assert capsys.readouterr().err == ("error: requires an output path under directories, not "
                                       "under a file: got 'results/error/error_p2_l0.csv'\n")
    assert written(tmp_path) == ["results"]


def test_unexecuted_lists_the_statements_its_tests_miss():
    """The SVG tests run the no-data range of `_log_range` but never a
    bisection step of `_beam_root`."""
    root = SCRIPTS.parent
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "unexecuted.py"), "tests/test_svgplot.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    listed = run.stdout.splitlines()

    def line_of(module, statement, after):
        source = (root / "src" / "ritzspline" / module).read_text().splitlines()
        start = next(i for i, text in enumerate(source) if text.startswith(after))
        n = next(i for i in range(start, len(source)) if source[i].strip() == statement) + 1
        return f"src/ritzspline/{module}:{n}  {statement}"

    assert line_of("eigenproblem.py", "lo = mid", "def _beam_root") in listed
    assert line_of("svgplot.py", "return -1.0, 1.0", "def _log_range") not in listed
    assert "passed" in run.stderr


def test_cold_start_times_a_command_in_both_checkouts():
    """One pair of `eig` runs, the checkout compared with itself."""
    root = SCRIPTS.parent
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "cold_start.py"), str(root), str(root), "--runs", "1",
         "--command", "eig"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"eig: \d+\.\d{3} \[(\d+\.\d{3}), \1\] -> \d+\.\d{3} s \([+-]\d+%\), "
                        r"change faster in [01]/1 pairs\n", run.stdout)
