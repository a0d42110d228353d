#!/usr/bin/env python3
"""sha256 of every artifact and every stdout of a fixed matrix of CLI runs.

The runs cover `project` (all four projectors, q = 0..3, CSV and JSON, on a
uniform, a nonuniform, a shifted mesh and one on [1e6, 1e6+1] for sin4x, and
on the first three for a parsed expression), `converge` (error studies for
every projector on runge and on the parsed expression, and rq-diff
studies for q = 1..3, uniform and graded; the error studies of sin4x to 256
elements that `perfbench` times, and the `q` and `ritz` ones at p = 4 to
4,096 elements; and the study shapes at the edges of the level-batched
algebra: `ritz` at q = 0 and 1, `qtilde` at q = 3, `q` and `ritz` with
`--k fixed:1`, every projector and rq-diff on [1e6, 1e6+1] and with
`--levels 1`), `constants` (one run per table, written to
`<run id>/table.csv`) and `eig` (p = 2..5 on 20, 50 and 100 elements, p = 5
on 200 as the benchmark's largest spectrum, p = 8 on 400, plus coarse meshes
that keep at most p basis functions).  That is 1,431 hashes.
Each run calls `ritzspline.cli.main` in this process and writes under a
temporary directory; one `sha256  path` line is printed per file written
and per run's stdout, sorted by path.

Two checkouts give the same artifacts exactly when their outputs are
identical, so comparing a change with its parent is one diff:

    python3 scripts/artifact_hashes.py > new.txt
    python3 scripts/artifact_hashes.py /path/to/parent-checkout > old.txt
    diff old.txt new.txt

`artifact_diff.py` shows whether files that differ agree to roundoff.
The optional argument names the checkout whose `src/` is imported (default:
the one holding this script).  Run both on the same machine with the same
BLAS thread settings: the `eig` artifacts from 201 modes on change in their
last bits with the thread count.  The settings that decide it,
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and the CPU count, are printed to
stderr, with the numpy and scipy versions, on which the hashes depend
too.  RITZ_SPLINE_QUAD_ORDER is ignored.  Exits 1 if any run does not
exit 0.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

EXPRESSION = "exp(x)*sin(3*x)+x^5/(1+x^2)"
PROJECT_MESHES = {
    "uniform": ["--uniform", "7"],
    "nonuniform": ["--breakpoints", "0,0.1,0.35,0.4,0.7,0.85,1"],
    "shifted": ["--uniform", "5", "--interval", "1", "3"],
    "far": ["--uniform", "7", "--interval", "1000000", "1000001"],
}
PROJECTORS = ("l2", "q", "ritz", "qtilde")
RQ_DEGREES = {1: "2,3", 2: "2,3,4,5", 3: "3,5,8"}
EIG_CASES = [(p, n) for p in (2, 3, 4, 5) for n in (20, 50, 100)]
EIG_CASES += [(5, 200), (8, 400)]  # where the residual check and the plot do most work
EIG_CASES += [(4, 3), (5, 2), (5, 3), (8, 1), (8, 3)]
CONSTANTS_TABLES = {
    "c": ["--p", "3", "--k", "2", "--r", "2"],
    "d": ["--p", "4"],
    "schultz-gap": [],
    "bounds": ["--p", "3", "--k", "2", "--q", "2", "--r", "4", "--h", "0.125"],
}


def runs() -> list[tuple[str, list[str]]]:
    """(run id, CLI arguments without --out) for the whole matrix."""
    out = []
    targets = [(name, "sin4x", mesh) for name, mesh in PROJECT_MESHES.items()]
    # the parsed target on every mesh but "far", where its exp overflows
    targets += [(f"expr-{name}", EXPRESSION, PROJECT_MESHES[name])
                for name in ("uniform", "nonuniform", "shifted")]
    for tag, function, mesh in targets:
        for projector in PROJECTORS:
            for q in range(4):
                for fmt in ("csv", "json"):
                    out.append((
                        f"project/{tag}-{projector}-q{q}-{fmt}",
                        ["project", "--function", function, "--p", "4", "--q", str(q),
                         "--projector", projector, "--format", fmt, *mesh],
                    ))
    for grading in ("1", "2"):
        for projector in PROJECTORS:
            out.append((
                f"converge/error-{projector}-g{grading}",
                ["converge", "--function", "runge", "--p-list", "2,3,4", "--q", "2",
                 "--l-list", "0,1,2", "--levels", "5", "--projector", projector,
                 "--grading", grading],
            ))
        for projector in PROJECTORS:
            out.append((
                f"converge/expr-error-{projector}-g{grading}",
                ["converge", "--function", EXPRESSION, "--p-list", "2,3,4", "--q", "2",
                 "--l-list", "0,1,2", "--levels", "5", "--projector", projector,
                 "--grading", grading],
            ))
        for q, p_list in RQ_DEGREES.items():
            out.append((
                f"converge/rq-diff-q{q}-g{grading}",
                ["converge", "--function", "sin4x", "--p-list", p_list, "--q", str(q),
                 "--l-list", ",".join(map(str, range(q + 1))), "--levels", "4",
                 "--study", "rq-diff", "--grading", grading],
            ))
    # study shapes at the edges of the batched level algebra
    for q in (0, 1):
        out.append((
            f"converge/error-ritz-q{q}",
            ["converge", "--function", "runge", "--p-list", "2,3,4", "--q", str(q),
             "--l-list", ",".join(map(str, range(q + 1))), "--levels", "5",
             "--projector", "ritz"],
        ))
    out.append((
        "converge/error-qtilde-q3",
        ["converge", "--function", "runge", "--p-list", "3,4,5", "--q", "3",
         "--l-list", "0,1,2,3", "--levels", "5", "--projector", "qtilde"],
    ))
    for projector in ("q", "ritz"):
        out.append((
            f"converge/error-{projector}-kfixed1",
            ["converge", "--function", "runge", "--p-list", "3,4,5", "--k", "fixed:1",
             "--q", "2", "--l-list", "0,1,2", "--levels", "5", "--projector", projector],
        ))
    far = ["--interval", "1000000", "1000001"]
    for projector in PROJECTORS:
        out.append((
            f"converge/error-{projector}-far",
            ["converge", "--function", "sin4x", "--p-list", "2,3,4", "--q", "2",
             "--l-list", "0,1,2", "--levels", "5", "--projector", projector, *far],
        ))
    out.append((
        "converge/rq-diff-far",
        ["converge", "--function", "sin4x", "--p-list", "2,3,4", "--q", "2",
         "--l-list", "0,1,2", "--levels", "4", "--study", "rq-diff", *far],
    ))
    for projector in PROJECTORS:
        out.append((
            f"converge/error-{projector}-levels1",
            ["converge", "--function", "runge", "--p-list", "2,3", "--q", "2",
             "--l-list", "0,1,2", "--levels", "1", "--projector", projector],
        ))
    out.append((
        "converge/rq-diff-levels1",
        ["converge", "--function", "sin4x", "--p-list", "2,3", "--q", "2",
         "--l-list", "0,1,2", "--levels", "1", "--study", "rq-diff"],
    ))
    for projector in ("q", "ritz"):
        for p in (2, 3, 4):
            out.append((
                f"converge/sin4x-{projector}-p{p}-levels8",
                ["converge", "--function", "sin4x", "--p-list", str(p), "--k", "max",
                 "--q", "2", "--l-list", "0,1,2", "--levels", "8", "--study", "error",
                 "--projector", projector],
            ))
    # grids 16 times the benchmark's finest, where the sweep's work buffers are large
    for projector in ("q", "ritz"):
        out.append((
            f"converge/sin4x-{projector}-p4-levels12",
            ["converge", "--function", "sin4x", "--p-list", "4", "--k", "max", "--q", "2",
             "--l-list", "0,1,2", "--levels", "12", "--study", "error",
             "--projector", projector],
        ))
    for table, params in CONSTANTS_TABLES.items():
        out.append((f"constants/{table}", ["constants", "--table", table, *params]))
    for p, elements in EIG_CASES:
        out.append((f"eig/p{p}-n{elements}",
                    ["eig", "--p", str(p), "--elements", str(elements)]))
    return out


def write_runs(dest: Path) -> int:
    """Run the matrix with the `ritzspline` found on sys.path, writing every
    artifact under dest and each run's stdout to `<run id>/stdout`.

    Returns the number of runs that did not exit 0.
    """
    os.environ.pop("RITZ_SPLINE_QUAD_ORDER", None)
    from ritzspline.cli import main as cli_main

    failed = 0
    home = os.getcwd()
    os.chdir(dest)  # relative --out paths keep stdout free of the temp path
    try:
        for run_id, argv in runs():
            captured = io.StringIO()
            # `constants --out` names a file, every other --out a directory
            dest_arg = f"{run_id}/table.csv" if argv[0] == "constants" else run_id
            with contextlib.redirect_stdout(captured):
                rc = cli_main(argv + ["--out", dest_arg])
            if rc != 0:
                print(f"{run_id}: exit {rc}", file=sys.stderr)
                failed += 1
            Path(run_id).mkdir(parents=True, exist_ok=True)
            Path(run_id, "stdout").write_bytes(captured.getvalue().encode())
    finally:
        os.chdir(home)
    return failed


def thread_settings() -> str:
    """The environment variables and the CPU count that set the BLAS thread
    count, as one line."""
    env = [f"{name}={os.environ.get(name, '(unset)')}"
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    return " ".join([*env, f"cpu_count={os.cpu_count()}"])


def library_versions() -> str:
    """The versions of the numpy and scipy that the runs import, as one line."""
    return f"numpy={numpy.__version__} scipy={scipy.__version__}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="source checkout whose src/ is imported")
    args = parser.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    print(thread_settings(), library_versions(), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        failed = write_runs(Path(tmp))
        digests = {
            path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in Path(tmp).rglob("*") if path.is_file()
        }
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
