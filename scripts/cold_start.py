#!/usr/bin/env python3
"""Cold-start time of CLI commands in two checkouts, in alternating fresh processes.

The CLI runs one operation per process, so a user waits for the imports as
well as for the operation.  For each command, every round starts
`python -m ritzspline.cli` once per checkout, with that checkout's `src/`
on PYTHONPATH and a fresh output directory, and times the whole process;
the checkout that runs first alternates from round to round, and a round's
two runs make a pair.  One untimed run per checkout comes first, so that
both find the files in the page cache.  Per command it prints the parent's
median [interquartile range], the change's median, and in how many pairs
the change was faster:

    python3 scripts/cold_start.py /path/to/parent-checkout . --runs 9

The commands are a cold `project --projector ritz`, the warm-up operation
of perfbench's `converge` workload, and a small `eig`.  Exits 1 if a run
does not exit 0.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "project": ["project", "--function", "sin4x", "--p", "3", "--q", "2", "--projector",
                "ritz", "--uniform", "16"],
    "converge": ["converge", "--function", "sin4x", "--p-list", "2,3,4", "--k", "max", "--q",
                 "2", "--l-list", "0,1,2", "--levels", "3", "--study", "error", "--projector",
                 "ritz"],
    "eig": ["eig", "--p", "3", "--elements", "20"],
}


def run_once(checkout: Path, argv: list[str], scratch: Path) -> float:
    """Seconds for one `python -m ritzspline.cli` process from `checkout`."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ritzspline.cli", *argv, "--out", str(out)],
                          cwd=out, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return elapsed


def compare(parent: Path, change: Path, argv: list[str], runs: int, scratch: Path) -> str:
    """One line: parent median [IQR] -> change median, and the pairs won."""
    for checkout in (parent, change):
        run_once(checkout, argv, scratch)  # untimed: fills the page cache
    old, new = [], []
    for i in range(runs):
        sides = [(parent, old), (change, new)]
        for checkout, times in sides if i % 2 == 0 else reversed(sides):
            times.append(run_once(checkout, argv, scratch))
    q1, _, q3 = statistics.quantiles(old, n=4) if runs > 1 else old * 3
    won = sum(b < a for a, b in zip(old, new))
    median_old, median_new = statistics.median(old), statistics.median(new)
    return (f"{median_old:.3f} [{q1:.3f}, {q3:.3f}] -> {median_new:.3f} s "
            f"({median_new / median_old - 1:+.0%}), change faster in {won}/{runs} pairs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--runs", type=int, default=9, help="timed pairs per command")
    parser.add_argument("--command", choices=sorted(COMMANDS), action="append",
                        help="time only this command (repeatable; default: all)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.command or COMMANDS:
            line = compare(args.parent, args.change, COMMANDS[name], args.runs, Path(scratch))
            print(f"{name}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
