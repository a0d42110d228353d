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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .functions import SmoothFunction
from .mesh import Breakpoints, Spline, SplineSpace, eval_spline_many, make_space
from .projectors import Levels, _check_order, projection_order
from .quadrature import GridTable, default_order, grid_table, mesh_points


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row; floats as
    :func:`_fmt` writes them, other fields as ``str``.  Each row is one
    ``%`` formatting, by a template built once per sequence of field types:
    ``%.17g`` for a float (a ``float`` subclass such as ``np.float64``
    included), ``%s`` for any other field."""
    templates: dict[tuple[type, ...], str] = {}
    lines = [header]
    for row in map(tuple, rows):
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                ["%.17g" if issubclass(kind, float) else "%s" for kind in kinds]
            )
        lines.append(template % row)
    return "\n".join(lines) + "\n"


# Types the C encoder writes exactly as indent-2 json does inside a container.
_SCALARS = {str, int, float, bool, type(None), np.float64}


def _dumps(obj: Any, indent: str = "") -> str:
    """What ``json.dumps`` writes for ``obj`` at ``indent=2``, byte for byte,
    from json's C encoder.

    An indent makes CPython's json fall back to its pure-Python encoder.
    Here dicts and lists holding containers are laid out level by level,
    and each dict or list of scalars is one C-encoder call whose item
    separator carries the newline and the indent: the encoder escapes every
    newline inside a string, so ",\\n" can only be a separator.  Keys must be
    ``str``: indent-2 json would quote any other key, a bare call would not.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        if set(map(type, obj.values())) <= _SCALARS:
            items = [json.dumps(obj, separators=(sep, ": "))[1:-1]]
        else:
            items = [f"{json.dumps(key)}: {_dumps(value, inner)}" for key, value in obj.items()]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _SCALARS:
            items = [json.dumps(obj, separators=(sep, ": "))[1:-1]]
        else:
            items = [_dumps(value, inner) for value in obj]
        opening, closing = "[", "]"
    else:
        return json.dumps(obj)
    return f"{opening}\n{inner}{sep.join(items)}\n{indent}{closing}"


def _check_norm_orders(u: SmoothFunction, ls: Sequence[int]) -> None:
    if max(ls, default=0) > u.max_order:
        raise ValueError(f"requires l <= max_order={u.max_order}: got l={max(ls)}")


def _check_resolved(spaces: Sequence[SplineSpace], values) -> None:
    """Require each reported (order l, number) finite: l-th basis derivatives,
    about (p / h)^l on elements of width h, overflow past the resolved orders."""
    for l, v in values:
        if not math.isfinite(v):
            h = min(np.diff(space.breakpoints.points).min() for space in spaces)
            raise ValueError("requires derivative orders that double precision resolves on "
                             f"elements of width {h:.3g}: order {l} gives {v}")


def _check_list(name: str, values: Sequence[int]) -> None:
    """Require a nonempty list of distinct values, each of which names one
    column or file of a study."""
    if not values:
        raise ValueError(f"requires a nonempty {name}")
    if len(set(values)) < len(values):
        raise ValueError(f"requires distinct values in {name}: got {list(values)}")


def error_norm(
    u: SmoothFunction, s: Spline, l: int | Sequence[int] = 0
) -> float | list[float]:
    """Broken L2 norm of the l-th derivative of (u - s).

    For a sequence of orders ``l``, the list of their norms, with s
    evaluated once for all of them.
    """
    ls = [l] if np.ndim(l) == 0 else list(l)
    _check_norm_orders(u, ls)
    sample = Levels(u, [s.space], ls).sample
    (norms,) = sample.norms(sample.u_values(ls) - sample.spline(s.coeffs, ls))
    return norms[0] if np.ndim(l) == 0 else norms


def _spline_norms(spaces, coeffs: np.ndarray, ls: Sequence[int]) -> list[list[float]]:
    """Per space, the broken L2 norm of the l-th derivative, for every l in
    ``ls``, of the splines with joined coefficients ``coeffs``: one basis
    sweep and one contraction for all, each norm summed over its own space's
    exact grid."""
    table = grid_table(spaces, [default_order(spaces[0].degree)] * len(spaces), ls)
    return table.norms(table.spline(coeffs, ls))


def function_seminorm(u: SmoothFunction, r: int, xi: Breakpoints) -> float:
    """L2 norm of the r-th derivative of ``u`` over the mesh interval."""
    xs, ws = mesh_points(xi, default_order(0, xi))
    d = u.eval(xs.ravel(), r)
    return float(math.sqrt(np.sum(d * d * ws.ravel())))


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

    def to_csv(self) -> str:
        ls, orders = self.levels, self.orders
        header = ["h"] + [f"err_l{l}" for l in ls] + [f"eoc_l{l}" for l in ls]
        return _csv(",".join(header), (
            [h] + [self.errors[l][i] for l in ls] + [orders[l][i - 1] if i else "" for l in ls]
            for i, h in enumerate(self.hs)
        ))

    def to_json(self) -> str:
        ls, orders = self.levels, self.orders
        payload = {
            "meta": self.meta,
            "h": self.hs,
            "errors": {f"l{l}": self.errors[l] for l in ls},
            "eoc": {f"l{l}": orders[l] for l in ls},
        }
        if self.zero_flags is not None:
            payload["exact_zero"] = self.zero_flags
        return _dumps(payload) + "\n"

    def subtable(self, l: int) -> "ConvergenceTable":
        return ConvergenceTable(
            dict(self.meta, l=l), self.hs, {l: self.errors[l]}, self.zero_flags
        )


# The finest of L study levels has 2^L elements, each with at least p + 6
# error-grid points of p + 1 basis values per order.  A study's peak memory
# measured 3 KB per finest element at p = 1 and 11 KB at p = 4 (q = l = 0):
# 0.2-0.7 GB at 2^16 elements, doubling with each further level.
MAX_LEVELS = 16


def _study_spaces(u, study, projector, p, k, q, l_set, levels, interval, grading, **extra):
    """The meta record of a study, its eight shared keys then ``extra``, and
    the spaces of its levels on the dyadically refined meshes of
    ``interval``, after requiring distinct orders in ``l_set``."""
    _check_list("l_set", l_set)
    if levels < 1:
        raise ValueError(f"requires levels >= 1: got {levels}")
    if levels > MAX_LEVELS:
        raise ValueError(
            f"requires levels <= MAX_LEVELS = {MAX_LEVELS}, the finest mesh having "
            f"2^levels elements: got {levels}"
        )
    meta = {"study": study, "function": u.description, "projector": projector, "p": p, "k": k,
            "q": q, "interval": list(interval), "grading": grading, **extra}
    a, b = interval
    meshes = [Breakpoints.uniform(2**i, a, b, grading=grading) for i in range(1, levels + 1)]
    return meta, [make_space(p, k, xi) for xi in meshes]


def _study_table(meta, spaces, l_set, norms, flags=None) -> ConvergenceTable:
    """The table of a study from norms[i][j], level i's norm of order l_set[j]."""
    errors = {l: [row[j] for row in norms] for j, l in enumerate(l_set)}
    _check_resolved(spaces, ((l, e) for l in l_set for e in errors[l]))
    return ConvergenceTable(meta, [space.breakpoints.h for space in spaces], errors, flags)


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
    """Errors of the chosen projector on dyadically refined uniform meshes.

    Every level is built first and the levels are projected and measured
    together: one evaluation of u and one basis sweep cover all error
    grids, one assembly and solve all L2 projections of u^(q), and one
    contraction all errors.  Each level's numbers are those of that level
    alone, bit for bit.  ``l_set`` lists distinct orders.
    """
    meta, spaces = _study_spaces(u, "error", projector, p, k, q, l_set, levels, interval, grading)
    _check_order(spaces[0], projection_order(projector, q), u)
    _check_norm_orders(u, l_set)
    study = Levels(u, spaces, l_set)
    sample = study.sample  # first: its u.eval names a bad order or a nonfinite u
    coeffs = study.project(projector, q)
    norms = sample.norms(sample.u_values(l_set) - sample.spline(coeffs, l_set))
    return _study_table(meta, spaces, l_set, norms)


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
    to degree 3q - 1, where the two projectors coincide.  ``l_set`` lists
    distinct orders.
    """
    meta, spaces = _study_spaces(u, "rq-diff", "ritz-q", p, k, q, l_set, levels, interval,
                                 grading, zero_expected=p >= 3 * q - 1)
    study = Levels(u, spaces)
    qs = study.project("q", q)
    diffs = study.project("ritz", q) - qs
    ends = np.cumsum([space.dim for space in spaces])[:-1]
    flags = [
        p >= 3 * q - 1
        and float(np.max(np.abs(diff))) <= 1e-9 * max(1.0, float(np.max(np.abs(s))))
        for diff, s in zip(np.split(diffs, ends), np.split(qs, ends))
    ]
    norms = _spline_norms(spaces, diffs, l_set)
    return _study_table(meta, spaces, l_set, norms, flags)


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

    One :func:`eval_spline_many` call gives s^(l) at both endpoints for
    every order, and u is evaluated once per endpoint for all orders, at a
    scalar x as ``u.eval(x, l)`` is (numpy's array power differs from its
    scalar power in the last bit).
    """
    (a, b), p = s.space.interval, s.space.degree
    got = eval_spline_many(s, [a, b], range(q)).T.tolist()  # got[e][l]: s^(l) at endpoint e
    want = [u.eval(x, range(q)).tolist() for x in (a, b)]
    out = []
    for l in range(q):
        for e, (endpoint, applicable) in enumerate((("a", True), ("b", p >= 2 * q - l - 1))):
            res = abs(got[e][l] - want[e][l])
            out.append(
                BoundaryResidual(endpoint, l, res, res / max(1.0, abs(want[e][l])), applicable)
            )
    _check_resolved([s.space], ((r.l, r.residual) for r in out))
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
    return project_report(Levels(u, [s.space], range(q + 1)), s, q, 0)[1]


def project_report(
    levels: Levels, s: Spline, q: int, l_max: int
) -> tuple[dict[int, float], list[MomentResidual]]:
    """The :func:`error_norm` of every order l <= l_max and the
    :func:`moment_report` of s, a spline in the one space of ``levels``,
    from the levels' sample: u^(l) and s^(l), l <= max(q, l_max), are each
    evaluated once there, so ``levels.orders`` must hold those orders."""
    (space,) = levels.spaces
    if s.space.degree != space.degree or not np.array_equal(s.space.knots, space.knots):
        raise ValueError("requires a spline in the space of the level")
    sample, orders = levels.sample, range(max(q, l_max) + 1)
    uls = sample.u_values(orders)
    errs = uls - sample.spline(s.coeffs, orders)
    (norms,) = sample.norms(errs[: l_max + 1])
    moments = _moment_residuals(space.degree, q, sample, uls, errs)
    _check_resolved(levels.spaces, [*enumerate(norms), *(
        (r.index if r.kind == "mean" else 0, r.residual) for r in moments)])
    return dict(enumerate(norms)), moments


def _moment_residuals(p, q, sample: GridTable, uls, errs) -> list[MomentResidual]:
    flat, wflat = sample.points, sample.weights
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
