"""Command-line front end: projection, convergence studies, constant tables,
and the eigenvalue lab.

Exit codes: 0 on success, 2 for usage or precondition violations (the
message names the violated requirement), 1 for internal failures.  All
CSV/JSON output is deterministic: identical flags give identical bytes.
Every integral takes its Gauss order from ``quadrature.default_order``, and
the environment variable RITZ_SPLINE_QUAD_ORDER is its one override; a
value below the exact order of an integral exits 2.

:func:`main` may be called any number of times in one process: the calls
share one argument parser, built on the first call, and each call's
options start from the defaults.  Every JSON artifact is written by
``json.dumps`` at ``indent=2``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, bounds, eigenproblem, svgplot
from .functions import resolve_function
from .mesh import Breakpoints, Spline, make_space
from .projectors import PROJECTORS, Levels, gauss_orders, projection_order
from .quadrature import ENV_ORDER
from .analysis import _check_list, _csv, _fmt


def _parse_list(text: str, convert=int, kind: str = "integer") -> list:
    try:
        return [convert(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated {kind} list: got '{text}'") from None


def _make_breakpoints(args) -> Breakpoints:
    if args.breakpoints is not None:
        for name in ("uniform", "interval"):
            if getattr(args, name) is not None:
                raise ValueError(f"requires --breakpoints or --{name}, not both")
        return Breakpoints(np.array(_parse_list(args.breakpoints, float, "number")))
    a, b = args.interval or (0.0, 1.0)
    return Breakpoints.uniform((args.uniform or 0) + 1, a, b)


def _write(path: Path, content: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    except IsADirectoryError:
        raise ValueError(f"requires an output file, not a directory: got '{path}'") from None
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"requires an output path under directories, not under a file: "
                         f"got '{path}'") from None
    print(path)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def cmd_project(args) -> int:
    u = resolve_function(args.function)
    k = args.p - 1 if args.k is None else args.k
    xi = _make_breakpoints(args)
    space = make_space(args.p, k, xi)
    order = projection_order(args.projector, args.q)
    # one sample of u and of the basis on the error-norm grid serves the
    # projection and the report
    levels = Levels(u, [space], range(args.q + 1))
    s = Spline(space, levels.project(args.projector, args.q))
    # the correction route keeps its correction on the levels
    corr = levels.correction(args.q)[0] if args.projector == "ritz" else None
    errors, mrep = analysis.project_report(levels, s, args.q, order)
    brep = analysis.boundary_report(u, s, args.q)
    out = Path(args.out)

    if args.format == "json":
        payload = {
            "function": args.function,
            "projector": args.projector,
            "p": args.p,
            "k": k,
            "q": args.q,
            "quadrature": {  # orders per element; Galerkin system in the derived space
                **gauss_orders(space, order),
                "override": ENV_ORDER in os.environ,
            },
            "knots": space.knots.tolist(),
            "coefficients": s.coeffs.tolist(),
            "errors": {f"l{l}": errors[l] for l in sorted(errors)},
            "boundary": [vars(r) for r in brep],
            "moments": [vars(r) for r in mrep],
        }
        if corr is not None:
            payload["correction"] = corr.tolist()
        _write(out / "report.json", json.dumps(payload, indent=2) + "\n")
        return 0

    _write(out / "coefficients.csv", _csv("index,coefficient", enumerate(s.coeffs)))
    _write(out / "knots.csv", _csv("index,knot", enumerate(space.knots)))
    _write(out / "errors.csv", _csv("l,error", ((l, errors[l]) for l in sorted(errors))))
    _write(out / "boundary.csv", _csv(
        "endpoint,l,residual,scaled,applicable",
        ((r.endpoint, r.l, r.residual, r.scaled, int(r.applicable)) for r in brep),
    ))
    _write(out / "moments.csv", _csv(
        "kind,index,residual,scaled,applicable",
        ((r.kind, r.index, r.residual, r.scaled, int(r.applicable)) for r in mrep),
    ))
    if corr is not None:
        _write(out / "correction.csv", _csv("power,coefficient", enumerate(corr)))
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _smoothness_for(rule: str, p: int) -> int:
    if rule == "max":
        return p - 1
    if rule.startswith("fixed:"):
        try:
            return int(rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--k must be 'max' or 'fixed:K' with K an integer: "
                             f"got '{rule}'") from None
    raise ValueError(f"--k must be 'max' or 'fixed:K': got '{rule}'")


def cmd_converge(args) -> int:
    u = resolve_function(args.function)
    p_list = _parse_list(args.p_list)
    l_list = tuple(_parse_list(args.l_list))
    _check_list("--p-list", p_list)
    _check_list("--l-list", l_list)
    if args.study == "error" and any(l > args.q for l in l_list):
        raise ValueError("requires l <= q for --study error")
    if args.study == "rq-diff" and args.projector is not None:
        raise ValueError("requires --study error with --projector: got --study rq-diff")
    out = Path(args.out)
    series = []
    ref_orders: set[float] = set()
    for p in p_list:
        k = _smoothness_for(args.k, p)
        if args.q > k + 1:
            raise ValueError(f"requires q <= k+1: got q={args.q}, k={k} (p={p})")
        if args.study == "error":
            table = analysis.convergence_study(
                u, args.projector or "q", p, k, args.q, l_list, args.levels,
                tuple(args.interval), args.grading,
            )
        else:
            table = analysis.rq_difference_study(
                u, p, k, args.q, l_list, args.levels, tuple(args.interval), args.grading
            )
        for l in l_list:
            sub = table.subtable(l)
            _write(out / f"{args.study}_p{p}_l{l}.csv", sub.to_csv())
            series.append(
                svgplot.Series(f"p={p}, l={l}", table.hs, table.errors[l])
            )
            if args.study == "error":
                ref_orders.add(p + 1 - l)
            else:
                ref_orders.add(2 * (p - args.q + 1))
    if args.levels >= 2:
        svg = svgplot.loglog_plot(
            series,
            title=f"{args.study} study: {args.function}",
            triangle_orders=sorted(ref_orders),
        )
        _write(out / f"{args.study}.svg", svg)
    return 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


# the options each table requires, and the ones it reads besides
_TABLE_OPTIONS = {
    "c": (("p", "k", "r"), ()),
    "d": (("p",), ()),
    "schultz-gap": ((), ("q_max",)),
    "bounds": (("p", "k", "q", "r", "h"), ("h_min", "length")),
}
_TABLE_READ = {name for required, optional in _TABLE_OPTIONS.values()
               for name in required + optional}


def _flags(names) -> str:
    """'--a', '--a and --b', '--a, --b and --c'."""
    flags = [f"--{name.replace('_', '-')}" for name in names]
    return ", ".join(flags[:-1]) + " and " + flags[-1] if len(flags) > 1 else flags[0]


def cmd_constants(args) -> int:
    required, optional = _TABLE_OPTIONS[args.table]
    unread = [name for name, value in vars(args).items()
              if value is not None and name in _TABLE_READ and name not in required + optional]
    if unread:
        raise ValueError(f"--table {args.table} reads {_flags(required + optional)}: "
                         f"got {_flags(unread)}")
    if any(getattr(args, name) is None for name in required):
        raise ValueError(f"requires {_flags(required)} for --table {args.table}")
    if args.table == "c":
        header = "p,k,r,c"
        rows = [(args.p, args.k, args.r, bounds.projection_constant(args.p, args.k, args.r))]
    elif args.table == "d":
        header, rows = "p,d", [(args.p, bounds.inverse_constant(args.p))]
    elif args.table == "schultz-gap":
        q_max = 8 if args.q_max is None else args.q_max
        if q_max < 1:
            raise ValueError(f"requires --q-max >= 1: got {q_max}")
        header = "q,k,gap"
        rows = [(q, k, bounds.schultz_log_gap(q, k))
                for q in range(1, q_max + 1) for k in range(q - 1, 2 * q - 1)]
        worst = min((gap for _, _, gap in rows), default=0.0)
        if worst < -1e-12:
            raise RuntimeError(f"negative constant gap {worst}; formulas broken")
    else:  # bounds
        query = functools.partial(
            bounds.BoundQuery, p=args.p, k=args.k, q=args.q, r=args.r, h=args.h,
            h_min=args.h if args.h_min is None else args.h_min,
            length=1.0 if args.length is None else args.length,
        )
        header = "l,kind,coefficient"
        rows = [(l, "error", bounds.error_coefficient(query(l=l))) if l <= args.q
                else (l, "broken", bounds.broken_error_coefficient(query(l=l)))
                for l in range(args.r + 1)]
        rows += [(l, "difference", bounds.difference_coefficient(query(l=l)))
                 for l in range(args.q)]
    content = _csv(header, rows)
    if args.out:
        _write(Path(args.out), content)
    else:
        sys.stdout.write(content)
    return 0


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def cmd_eig(args) -> int:
    eigenproblem._check_pencil_dim(args.p, args.elements)
    xi = Breakpoints.uniform(args.elements)
    report = eigenproblem.solve_biharmonic(args.p, xi, args.threshold)
    out = Path(args.out)
    _write(out / "spectrum.csv", report.to_csv())
    _write(out / "spectrum.json", report.to_json())
    svg = svgplot.spectrum_plot(
        report.rel_errors.tolist(),
        report.predicted_non_outliers,
        args.threshold,
        title=f"biharmonic spectrum: p={args.p}, {args.elements} elements",
    )
    _write(out / "spectrum.svg", svg)
    print(
        f"n={report.n} lambda_h1={_fmt(report.lambdas[0])} "
        f"predicted_non_outliers={report.predicted_non_outliers} "
        f"observed_outliers={len(report.observed_outliers)} "
        f"backward_error={report.backward_error:.2e}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by every
    later :func:`main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="ritzspline",
        description="Spline projection with boundary interpolation and explicit "
        "error constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_proj = sub.add_parser("project", help="project a function onto a spline space")
    p_proj.add_argument("--function", required=True, help="builtin name or expression")
    p_proj.add_argument("--p", type=int, required=True, help="spline degree")
    p_proj.add_argument("--k", type=int, default=None, help="smoothness (default p-1)")
    p_proj.add_argument("--q", type=int, default=0, help="projector order")
    p_proj.add_argument("--projector", choices=PROJECTORS, default="q")
    p_proj.add_argument("--breakpoints", default=None, help="comma-separated abscissae")
    p_proj.add_argument(
        "--uniform", type=int, default=None, help="number of interior breakpoints (default 0)"
    )
    p_proj.add_argument(
        "--interval", type=float, nargs=2, default=None, metavar=("A", "B"),
        help="interval of the uniform mesh (default 0 1)",
    )
    p_proj.add_argument("--out", default="project_out", help="output directory")
    p_proj.add_argument("--format", choices=("csv", "json"), default="csv")
    p_proj.set_defaults(func=cmd_project)

    p_conv = sub.add_parser("converge", help="dyadic-refinement convergence study")
    p_conv.add_argument("--function", required=True)
    p_conv.add_argument("--p-list", required=True, help="comma-separated degrees")
    p_conv.add_argument("--k", default="max", help="'max' or 'fixed:K'")
    p_conv.add_argument("--q", type=int, default=2)
    p_conv.add_argument("--l-list", default="0", help="comma-separated derivative orders")
    p_conv.add_argument("--levels", type=int, default=5)
    p_conv.add_argument("--study", choices=("error", "rq-diff"), default="error")
    p_conv.add_argument(
        "--projector", choices=PROJECTORS, default=None, help="for --study error (default q)"
    )
    p_conv.add_argument(
        "--interval", type=float, nargs=2, default=(0.0, 1.0), metavar=("A", "B")
    )
    p_conv.add_argument("--grading", type=float, default=1.0)
    p_conv.add_argument("--out", default="converge_out", help="output directory")
    p_conv.set_defaults(func=cmd_converge)

    p_const = sub.add_parser("constants", help="explicit constants and bound tables")
    p_const.add_argument(
        "--table", choices=("c", "d", "schultz-gap", "bounds"), required=True
    )
    p_const.add_argument("--p", type=int, default=None)
    p_const.add_argument("--k", type=int, default=None)
    p_const.add_argument("--q", type=int, default=None)
    p_const.add_argument("--r", type=int, default=None)
    p_const.add_argument("--h", type=float, default=None)
    p_const.add_argument("--h-min", type=float, default=None)
    p_const.add_argument(
        "--length", type=float, default=None, help="interval length b - a (default 1.0)"
    )
    p_const.add_argument("--q-max", type=int, default=None, help="largest order q (default 8)")
    p_const.add_argument("--out", default=None, help="output file (default stdout)")
    p_const.set_defaults(func=cmd_constants)

    p_eig = sub.add_parser("eig", help="clamped biharmonic eigenvalue lab")
    p_eig.add_argument("--p", type=int, required=True)
    p_eig.add_argument("--elements", type=int, required=True)
    p_eig.add_argument("--threshold", type=float, default=0.10)
    p_eig.add_argument("--out", default="eig_out", help="output directory")
    p_eig.set_defaults(func=cmd_eig)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow past the derivative orders a mesh resolves is named by the reports
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
