"""Error norms, convergence studies, and boundary/moment diagnostics.

Norms of derivative errors are broken norms: element-by-element L2 norms
summed in quadrature, which coincide with the global norms whenever the
derivative order stays within the smoothness of the space.  Estimated
orders of convergence come from consecutive-pair log ratios, so
preasymptotic rows stay visible instead of being averaged away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .functions import SmoothFunction
from .mesh import Breakpoints, Spline, eval_spline, eval_spline_many, make_space
from .projectors import q_project, l2_project, qtilde_project, ritz_project
from .quadrature import default_order, mesh_points


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def error_norm(u: SmoothFunction, s: Spline, l: int = 0) -> float:
    """Broken L2 norm of the l-th derivative of (u - s)."""
    if l > u.max_order:
        raise ValueError(f"requires l <= max_order={u.max_order}: got l={l}")
    n = default_order(s.space.degree, s.space.breakpoints)
    xs, ws = mesh_points(s.space.breakpoints, n)
    flat = xs.ravel()
    d = u.eval(flat, l) - eval_spline_many(s, flat, l)
    return float(math.sqrt(np.sum(d * d * ws.ravel())))


def spline_norm(s: Spline, l: int = 0) -> float:
    """Broken L2 norm of the l-th derivative of a spline."""
    xs, ws = mesh_points(s.space.breakpoints, default_order(s.space.degree))
    d = eval_spline_many(s, xs.ravel(), l)
    return float(math.sqrt(np.sum(d * d * ws.ravel())))


def function_seminorm(u: SmoothFunction, r: int, xi: Breakpoints) -> float:
    """L2 norm of the r-th derivative of ``u`` over the mesh interval."""
    xs, ws = mesh_points(xi, default_order(0, xi))
    d = u.eval(xs.ravel(), r)
    return float(math.sqrt(np.sum(d * d * ws.ravel())))


_PROJECTORS = {
    "l2": lambda space, q, u: l2_project(space, u),
    "q": q_project,
    "ritz": ritz_project,
    "qtilde": qtilde_project,
}


def apply_projector(name: str, space, q: int, u: SmoothFunction) -> Spline:
    try:
        proj = _PROJECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown projector '{name}'; available: {', '.join(sorted(_PROJECTORS))}"
        ) from None
    return proj(space, q, u)


@dataclass
class ConvergenceTable:
    """Per-refinement errors with estimated orders of convergence.

    ``errors[l]`` aligns with ``hs``; ``orders[l]`` has one entry fewer, the
    log-ratio between consecutive rows.  ``zero_flags`` marks rows whose
    values are exact zeros up to roundoff (difference studies with
    coinciding projectors).
    """

    meta: dict[str, Any]
    hs: list[float]
    errors: dict[int, list[float]]
    zero_flags: list[bool] | None = None

    @property
    def levels(self) -> list[int]:
        return sorted(self.errors)

    @property
    def orders(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for l, errs in self.errors.items():
            rates = []
            for i in range(1, len(errs)):
                if errs[i] == 0.0 or errs[i - 1] == 0.0:
                    rates.append(float("nan"))
                else:
                    rates.append(
                        math.log(errs[i - 1] / errs[i])
                        / math.log(self.hs[i - 1] / self.hs[i])
                    )
            out[l] = rates
        return out

    def final_order(self, l: int) -> float:
        """Headline estimated order: the last consecutive-pair rate."""
        rates = self.orders[l]
        if not rates:
            raise ValueError("need at least two refinement levels for an order")
        return rates[-1]

    def to_csv(self) -> str:
        ls = self.levels
        header = ["h"] + [f"err_l{l}" for l in ls] + [f"eoc_l{l}" for l in ls]
        orders = self.orders
        lines = [",".join(header)]
        for i, h in enumerate(self.hs):
            row = [_fmt(h)]
            row += [_fmt(self.errors[l][i]) for l in ls]
            if i == 0:
                row += ["" for _ in ls]
            else:
                row += [_fmt(orders[l][i - 1]) for l in ls]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "h": self.hs,
            "errors": {f"l{l}": self.errors[l] for l in self.levels},
            "eoc": {f"l{l}": self.orders[l] for l in self.levels},
        }
        if self.zero_flags is not None:
            payload["exact_zero"] = self.zero_flags
        return json.dumps(payload, indent=2, allow_nan=True) + "\n"

    def subtable(self, l: int) -> "ConvergenceTable":
        return ConvergenceTable(
            dict(self.meta, l=l), self.hs, {l: self.errors[l]}, self.zero_flags
        )


def _study_meshes(
    levels: int, interval: tuple[float, float], grading: float
) -> list[Breakpoints]:
    a, b = interval
    return [
        Breakpoints.uniform(2**i, a, b, grading=grading) for i in range(1, levels + 1)
    ]


def convergence_study(
    u: SmoothFunction,
    projector: str,
    p: int,
    k: int,
    q: int,
    l_set: tuple[int, ...] = (0,),
    levels: int = 5,
    interval: tuple[float, float] = (0.0, 1.0),
    grading: float = 1.0,
) -> ConvergenceTable:
    """Errors of the chosen projector on dyadically refined uniform meshes."""
    meta = {
        "study": "error",
        "function": u.description,
        "projector": projector,
        "p": p,
        "k": k,
        "q": q,
        "interval": list(interval),
        "grading": grading,
    }
    hs: list[float] = []
    errors: dict[int, list[float]] = {l: [] for l in l_set}
    for xi in _study_meshes(levels, interval, grading):
        space = make_space(p, k, xi)
        s = apply_projector(projector, space, q, u)
        hs.append(xi.h)
        for l in l_set:
            errors[l].append(error_norm(u, s, l))
    return ConvergenceTable(meta, hs, errors)


def rq_difference_study(
    u: SmoothFunction,
    p: int,
    k: int,
    q: int,
    l_set: tuple[int, ...] = (0,),
    levels: int = 5,
    interval: tuple[float, float] = (0.0, 1.0),
    grading: float = 1.0,
) -> ConvergenceTable:
    """Norms of the difference between the Ritz and boundary projections.

    Rows are flagged exact-zero when the space contains all polynomials up
    to degree 3q - 1, where the two projectors coincide.
    """
    meta = {
        "study": "rq-diff",
        "function": u.description,
        "projector": "ritz-q",
        "p": p,
        "k": k,
        "q": q,
        "interval": list(interval),
        "grading": grading,
        "zero_expected": p >= 3 * q - 1,
    }
    hs: list[float] = []
    errors: dict[int, list[float]] = {l: [] for l in l_set}
    flags: list[bool] = []
    for xi in _study_meshes(levels, interval, grading):
        space = make_space(p, k, xi)
        qs = q_project(space, q, u)
        rs = ritz_project(space, q, u, qu=qs)
        diff = rs - qs
        hs.append(xi.h)
        scale = max(1.0, float(np.max(np.abs(qs.coeffs))))
        flags.append(
            p >= 3 * q - 1
            and float(np.max(np.abs(diff.coeffs))) <= 1e-9 * scale
        )
        for l in l_set:
            errors[l].append(spline_norm(diff, l))
    return ConvergenceTable(meta, hs, errors, zero_flags=flags)


@dataclass(frozen=True)
class BoundaryResidual:
    endpoint: str  # "a" or "b"
    l: int
    residual: float
    scaled: float
    applicable: bool


def boundary_report(u: SmoothFunction, s: Spline, q: int) -> list[BoundaryResidual]:
    """Endpoint interpolation residuals |d^l (u - s)| for l < q.

    The left endpoint is matched by construction; the right endpoint is
    guaranteed only when p >= 2q - l - 1, and the flag records that.
    """
    a, b = s.space.interval
    p = s.space.degree
    out = []
    for l in range(q):
        for endpoint, x, applicable in (
            ("a", a, True),
            ("b", b, p >= 2 * q - l - 1),
        ):
            want = u.eval(x, l)
            got = eval_spline(s, x, l)
            res = abs(got - want)
            out.append(
                BoundaryResidual(endpoint, l, res, res / max(1.0, abs(want)), applicable)
            )
    return out


@dataclass(frozen=True)
class MomentResidual:
    kind: str  # "mean" for (d^l e, 1), "moment" for (e, x^i)
    index: int
    residual: float
    scaled: float
    applicable: bool


def moment_report(u: SmoothFunction, s: Spline, q: int) -> list[MomentResidual]:
    """Residuals of the conserved derivative means and monomial moments.

    (d^l (u - s), 1) vanishes when the space contains P_{2q-l}; (u - s, x^i)
    vanishes when it contains P_{2q+i}.  For spline spaces containment of
    P_d just means p >= d.
    """
    space = s.space
    p = space.degree
    n = default_order(p, space.breakpoints)
    xs, ws = mesh_points(space.breakpoints, n)
    flat, wflat = xs.ravel(), ws.ravel()
    uls = [u.eval(flat, l) for l in range(q + 1)]
    errs = [ul - eval_spline_many(s, flat, l) for l, ul in enumerate(uls)]
    terms = [("mean", l, errs[l], uls[l], p >= 2 * q - l) for l in range(q + 1)]
    terms += [
        ("moment", i, errs[0] * flat**i, uls[0] * flat**i, p >= 2 * q + i)
        for i in range(q)
    ]
    out = []
    for kind, index, err, val, applicable in terms:
        res = abs(float(np.sum(err * wflat)))
        ref = abs(float(np.sum(val * wflat)))
        out.append(MomentResidual(kind, index, res, res / max(1.0, ref), applicable))
    return out
