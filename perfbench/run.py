"""Benchmark of ritzspline: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload {converge,project,eig} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One caller issues the workload's operations back to back (a
closed loop) and BLAS threads are capped at the number of usable cores.
A run repeats whole passes over the workload's operations until ``--seconds``
have elapsed, checking every output after it has been timed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes, then traced passes, and reports per-layer self times and counts,
the tracing overhead and the untraced remainder.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, sleep

import tracing
from calibration import EDGE_SAMPLES, SpeedSampler, kernel_time, speed_factor
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured this many times per run, in this process and in fresh
# child processes, and reported as the median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# Pause after a pass's checks, so that BLAS worker threads woken by the
# reference computations go idle before timing resumes.
SETTLE_S = 0.2

# Per-layer metrics: self time of a span, or a count per pass.
SELF_TIMES = {
    "functions.eval_s": "functions.eval",
    "functions.build_s": "functions.build",
    "mesh.eval_spline_many_s": "mesh.eval_spline_many",
    "mesh.poly_to_spline_s": "mesh.poly_to_spline",
    "quadrature.gram_matrix_s": "quadrature.gram_matrix",
    "quadrature.load_vector_s": "quadrature.load_vector",
    "quadrature.solve_spd_s": "quadrature.solve_spd",
    "projectors.ritz_correction_s": "projectors.ritz_correction",
    "projectors.kkt_solve_s": "projectors.kkt_solve",
    "analysis.error_norm_s": "analysis.error_norm",
    "analysis.moment_report_s": "analysis.moment_report",
    "analysis.boundary_report_s": "analysis.boundary_report",
    "eigenproblem.eigh_s": "eigenproblem.eigh",
    "eigenproblem.solve_self_s": "eigenproblem.solve",
    "eigenproblem.beam_roots_s": "eigenproblem.beam_roots",
    "cli.render_s": "cli.render",
}
COUNTS = {
    "functions.eval_points": ("functions.eval_points", "count"),
    "mesh.eval_points": ("mesh.eval_points", "count"),
    "quadrature.gram_points": ("quadrature.gram_matrix.points", "count"),
    "quadrature.load_points": ("quadrature.load_vector.points", "count"),
    "projectors.q_project_calls": ("projectors.q_project_calls", "count"),
    "projectors.kkt_dim": ("projectors.kkt_dim", "count"),
    "eigenproblem.dense_bytes": ("eigenproblem.solve.dense_bytes", "bytes"),
    "cli.artifact_bytes": ("cli.artifact_bytes", "bytes"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="measure one set-up in this process, print it, exit")
    return parser.parse_args(argv)


def quiet_call(fn, *args):
    """Call fn with the CLI's chatter captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def setup_once(workload: Workload, scratch: Path) -> float:
    """Import ritzspline and finish the warm-up operation.

    Returns seconds at typical host speed: the duration divided by the speed
    factor measured right after (the calibration kernel needs numpy, which
    is only loaded by then).
    """
    start = perf_counter()
    import ritzspline.cli  # noqa: F401  (the import is what is timed)

    code, text = quiet_call(workload.warmup, scratch / "warmup")
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"warm-up operation failed with exit code {code}: {text.strip()}")
    return elapsed / speed_factor([kernel_time() for _ in range(2 * EDGE_SAMPLES)])


def setup_in_child(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-sample"]
    done = subprocess.run(cmd, cwd=ROOT_DIR, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Pass:
    """Outcome of one pass: timed operations, their speed factors, failures."""

    def __init__(self) -> None:
        self.durations: dict[str, float] = {}  # seconds as measured
        self.speeds: dict[str, float] = {}  # host speed factor around each operation
        self.failures: list[tuple[str, str | None, str]] = []  # (op, probe, message)

    @property
    def wall(self) -> float:
        return sum(self.durations.values())

    def calibrated(self, name: str) -> float:
        return self.durations[name] / self.speeds[name]

    @property
    def calibrated_wall(self) -> float:
        return sum(self.calibrated(name) for name in self.durations)


def run_pass(workload: Workload, scratch: Path, tracer: tracing.Tracer,
             timer: SpeedSampler) -> Pass:
    """Time every operation of the workload, then check every output.

    The checks run after the last operation, so that their own numerical
    work (and the BLAS threads it wakes) does not overlap a timed call.
    """
    import checks

    result_pass = Pass()
    outcomes = []
    for op in workload.ops:
        tracer.active = tracer.installed and op.probe is None
        error = None
        buf = io.StringIO()
        root = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                with timer:
                    if tracer.active:
                        root, result = tracer.op(op.name, op.run, scratch / op.name)
                    else:
                        result = op.run(scratch / op.name)
            except Exception:  # noqa: BLE001 - a raising operation is a counted failure
                result = None
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        tracer.active = False
        if root is not None:
            tracer.speeds[root] = timer.speed
        said = buf.getvalue().strip().splitlines()
        if error is None and isinstance(result, int) and result != 0:
            error = f"exit code {result}" + (f": {said[-1]}" if said else "")
        outcomes.append((op, result, error))
        if op.probe is None:
            result_pass.durations[op.name] = timer.seconds
            result_pass.speeds[op.name] = timer.speed

    earlier: dict = {}
    for op, result, error in outcomes:
        if error is None:
            try:
                earlier[op.name] = getattr(checks, op.check)(op, result, scratch / op.name, earlier)
            except checks.CheckFailed as exc:
                error = str(exc)
        shutil.rmtree(scratch / op.name, ignore_errors=True)
        if error is not None:
            result_pass.failures.append((op.name, op.probe, error))
    sleep(SETTLE_S)
    return result_pass


def run_passes(workload, scratch, tracer, timer, until: float, t0: float) -> list[Pass]:
    """Whole passes until `until` seconds after t0 (at least one)."""
    passes = [run_pass(workload, scratch, tracer, timer)]
    while perf_counter() - t0 < until:
        passes.append(run_pass(workload, scratch, tracer, timer))
    return passes


def git_commit() -> str:
    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, passes: list[Pass], setups: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = statistics.median(v for p in passes for v in p.speeds.values())
    print(f"as measured: wall {statistics.median(p.wall for p in passes):.4f} s, "
          f"large op {statistics.median(p.durations[workload.large] for p in passes):.4f} s; "
          f"median host speed factor {speed:.4f}")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p.calibrated_wall for p in passes), "s"),
        "large_op_s": metric(statistics.median(p.calibrated(workload.large) for p in passes), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer: tracing.Tracer, plain: list[Pass], traced: list[Pass]) -> dict:
    """Per-pass means over the traced passes; counts must repeat in every pass.

    Times are calibrated like wall_s, from samples taken just before and
    after each operation (none during it, as they would land in a span).
    """
    n = len(traced)
    selfs = tracer.self_times()
    out = {name: metric(selfs.get(span, 0.0) / n, "s") for name, span in SELF_TIMES.items()}
    for name, (counter, unit) in COUNTS.items():
        total = tracer.counts.get(counter, 0)
        if total % n:
            raise RuntimeError(f"{name}: {total} is not the same in each of {n} passes")
        out[name] = metric(total // n, unit)
    traced_wall = sum(p.calibrated_wall for p in traced) / n
    plain_wall = sum(p.calibrated_wall for p in plain) / len(plain)
    layers = sum(v["value"] for k, v in out.items() if k in SELF_TIMES)
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(plain_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    out["trace.remainder_s"] = metric(traced_wall - layers, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT_DIR / "src"
    if not (src / "ritzspline" / "__init__.py").is_file():
        print(f"error: package source {src / 'ritzspline'} not found; "
              "run from the root of a ritzspline checkout", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        scratch = Path(tmp)
        if args.setup_sample:
            print(repr(setup_once(workload, scratch)))
            return 0
        setups = [setup_once(workload, scratch)]
        if not args.trace:
            setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

        import reference

        reference.self_test()
        print("env " + json.dumps(environment(threads), sort_keys=True))

        tracer = tracing.Tracer()
        t0 = perf_counter()
        if not args.trace:
            passes = run_passes(workload, scratch, tracer, SpeedSampler(), args.seconds, t0)
            metrics = end_to_end(workload, passes, setups)
        else:
            timer = SpeedSampler(during=False)
            plain = run_passes(workload, scratch, tracer, timer, args.seconds / 2, t0)
            tracer.install()
            try:
                traced = run_passes(workload, scratch, tracer, timer, args.seconds, t0)
            finally:
                tracer.uninstall()
            passes = plain + traced
            metrics = per_layer(tracer, plain, traced)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT_DIR)}")

    failures = [f for p in passes for f in p.failures]
    correct = all(probe is not None for _, probe, _ in failures)
    for name, probe, message in dict.fromkeys(failures):
        tag = f"probe {probe}" if probe else "UNEXPECTED"
        print(f"failed [{tag}] {args.workload}/{name}: {message}", file=sys.stderr)
    attempted = len(passes) * len(workload.ops)
    print(f"workload {args.workload}: {len(passes)} passes, {attempted} operations "
          f"attempted, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
