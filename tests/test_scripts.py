"""The experiment scripts run end to end and write the files they name."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TABLES = [f"p{p}_l{l}.csv" for p in (2, 3, 4) for l in (0, 1)]
WRITES = {
    "run_error_convergence.py":
        [f"results/error/error_{t}" for t in TABLES] + ["results/error/error.svg"],
    "run_rq_difference.py":
        [f"results/rq-diff/rq-diff_{t}" for t in TABLES] + ["results/rq-diff/rq-diff.svg"],
    "run_schultz_gap.py": ["results/schultz_gap.csv"],
    "run_outlier_lab.py": [f"results/eig/spectrum.{ext}" for ext in ("csv", "json", "svg")],
}


@pytest.mark.parametrize("script", sorted(WRITES))
def test_script_exits_0_and_writes_its_files(tmp_path, monkeypatch, capsys, script):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert done.value.code == 0
    written = [path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")
               if path.is_file()]
    assert sorted(written) == sorted(WRITES[script])


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
