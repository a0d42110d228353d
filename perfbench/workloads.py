"""The benchmark's workloads: the operations of one pass, with their inputs.

An operation is one user-level call into ritzspline: ``ritzspline.cli.main``
writing into a fresh output directory, or the public library function the
CLI would call.  Each operation names the check (a function in
``checks.py``) that validates its output after it has been timed.

This module imports only the standard library at load time; ritzspline is
imported inside the operations, so the benchmark can time the package's
import as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Target of the project workload: exercises the expression parser and the
# symbolic derivatives instead of the closed-form builtins.
EXPRESSION = "exp(x)*sin(3*x)+x^5/(1+x^2)"

CONVERGE_P = (2, 3, 4)
CONVERGE_Q = 2
CONVERGE_L = (0, 1, 2)
CONVERGE_LEVELS = 8  # dyadic meshes with 2, 4, ..., 256 elements
# rq-diff cases (p, levels): p = 5 = 3q - 1 is the first degree at which the
# two Ritz-type projectors coincide; four levels suffice to see it.
RQ_CASES = ((2, 8), (3, 8), (4, 8), (5, 4))

EIG_P = (2, 3, 4, 5)
EIG_ELEMENTS = (20, 50, 100, 200)


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``run(outdir)`` performs the call and returns what its check needs;
    ``check`` names the validating function in ``checks.py``; ``params``
    holds the inputs the check recomputes from.  ``probe`` names the
    program fault an operation is known to fail on: such operations are
    attempted and counted in every pass but enter no timing metric.
    """

    name: str
    run: Callable[[Path], Any]
    check: str
    params: dict
    probe: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Callable[[Path], int]  # first CLI call, timed as part of set-up
    ops: tuple[Op, ...]
    large: str  # name of the operation reported as large_op_s


def _cli(argv: list[str]) -> Callable[[Path], int]:
    def run(outdir: Path) -> int:
        from ritzspline.cli import main

        return main(argv + ["--out", str(outdir)])

    return run


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _converge_argv(projector: str, p_list: str, levels: int) -> list[str]:
    return [
        "converge", "--function", "sin4x", "--p-list", p_list, "--k", "max",
        "--q", str(CONVERGE_Q), "--l-list", ",".join(map(str, CONVERGE_L)),
        "--levels", str(levels), "--study", "error", "--projector", projector,
    ]


def _rq_diff(p: int, levels: int) -> Callable[[Path], str]:
    def run(outdir: Path) -> str:
        from ritzspline.analysis import rq_difference_study
        from ritzspline.functions import resolve_function

        u = resolve_function("sin4x")
        return rq_difference_study(u, p, p - 1, CONVERGE_Q, CONVERGE_L, levels).to_json()

    return run


def converge(seed: int) -> Workload:
    """Error studies for Q and Ritz plus the Ritz-minus-Q difference study.

    One operation per degree, so that a pass is made of many short calls.
    The inputs are the paper's dyadic meshes and do not depend on the seed.
    """
    ops = []
    for projector in ("q", "ritz"):
        for p in CONVERGE_P:
            study = {"projector": projector, "p": p, "q": CONVERGE_Q, "l": CONVERGE_L,
                     "levels": CONVERGE_LEVELS}
            ops.append(Op(f"error-{projector}-p{p}",
                          _cli(_converge_argv(projector, str(p), CONVERGE_LEVELS)),
                          "converge_study", study))
    for p, levels in RQ_CASES:
        ops.append(Op(f"rq-diff-p{p}", _rq_diff(p, levels), "rq_difference",
                      {"p": p, "q": CONVERGE_Q, "l": CONVERGE_L, "levels": levels}))
    warmup = _cli(_converge_argv("ritz", ",".join(map(str, CONVERGE_P)), 3))
    return Workload("converge", warmup, tuple(ops), large="error-ritz-p4")


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def nonuniform_breakpoints(seed: int, elements: int) -> tuple[float, ...]:
    """Seeded mesh on [0, 1]: element widths drawn from [0.5, 1.5] and normalised."""
    rng = random.Random(seed)
    widths = [rng.uniform(0.5, 1.5) for _ in range(elements)]
    total = sum(widths)
    points, acc = [0.0], 0.0
    for w in widths[:-1]:
        acc += w
        points.append(acc / total)
    points.append(1.0)
    return tuple(points)


def _project_argv(p: int, q: int, projector: str, breaks: tuple[float, ...] | None,
                  elements: int) -> list[str]:
    argv = ["project", "--function", EXPRESSION, "--p", str(p), "--q", str(q),
            "--projector", projector, "--format", "json"]
    if breaks is None:
        return argv + ["--uniform", str(elements - 1)]
    return argv + ["--breakpoints", ",".join(repr(x) for x in breaks)]


def _saddle(target: str, p: int, q: int, breaks: tuple[float, ...]) -> Callable[[Path], dict]:
    def run(outdir: Path) -> dict:
        from ritzspline.functions import resolve_function
        from ritzspline.mesh import Breakpoints, make_space
        from ritzspline.projectors import ritz_project

        u = resolve_function(target)
        space = make_space(p, p - 1, Breakpoints(breaks))
        s = ritz_project(space, q, u, method="saddle")
        return {"knots": list(space.knots), "coefficients": list(s.coeffs)}

    return run


def _uniform(elements: int) -> tuple[float, ...]:
    return tuple(i / elements for i in range(elements + 1))


def project(seed: int) -> Workload:
    """All four projectors plus the saddle route on two meshes.

    Mesh A is uniform (p=3, 256 elements); mesh B has 128 elements whose
    breakpoints the seed places (p=4).  Both use q=2.
    """
    ops: list[Op] = []
    configs = (
        ("A", 3, 2, None, 256),
        ("B", 4, 2, nonuniform_breakpoints(seed, 128), 128),
    )
    for tag, p, q, breaks, elements in configs:
        mesh = breaks if breaks is not None else _uniform(elements)
        for projector in ("l2", "q", "ritz", "qtilde"):
            params = {"target": EXPRESSION, "p": p, "q": q, "projector": projector,
                      "breaks": mesh}
            ops.append(Op(f"{tag}-{projector}",
                          _cli(_project_argv(p, q, projector, breaks, elements)),
                          "project_report", params))
        ops.append(Op(f"{tag}-saddle", _saddle(EXPRESSION, p, q, mesh), "saddle_route",
                      {"target": EXPRESSION, "p": p, "q": q, "breaks": mesh,
                       "against": f"{tag}-ritz"}))
    # F3: the unscaled dense KKT solve loses seven digits at q = 3.
    ops.append(Op("F3-saddle-q3", _saddle("sin4x", 4, 3, _uniform(128)), "saddle_route",
                  {"target": "sin4x", "p": 4, "q": 3, "breaks": _uniform(128),
                   "against": None}, probe="F3"))
    warmup = _cli(_project_argv(3, 2, "ritz", None, 16))
    return Workload("project", warmup, tuple(ops), large="A-ritz")


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def _eig_argv(p: int, elements: int) -> list[str]:
    return ["eig", "--p", str(p), "--elements", str(elements)]


def eig(seed: int) -> Workload:
    """Clamped biharmonic spectra on uniform meshes; seed-independent."""
    ops = [
        Op(f"p{p}-n{n}", _cli(_eig_argv(p, n)), "spectrum", {"p": p, "elements": n})
        for p in EIG_P
        for n in EIG_ELEMENTS
    ]
    # F1: _beam_root overflows math.cosh from mode 226 on.
    ops.append(Op("F1-p3-n240", _cli(_eig_argv(3, 240)), "spectrum",
                  {"p": 3, "elements": 240}, probe="F1"))
    # F2: the residual tolerance scales with lambda_i instead of the norm of K.
    ops.append(Op("F2-p3-n400", _cli(_eig_argv(3, 400)), "spectrum",
                  {"p": 3, "elements": 400}, probe="F2"))
    warmup = _cli(_eig_argv(3, 20))
    return Workload("eig", warmup, tuple(ops), large="p5-n200")


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "converge": converge,
    "project": project,
    "eig": eig,
}
