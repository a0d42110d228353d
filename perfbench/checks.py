"""Correctness checks, run after the operations of a pass, outside timing.

Every check recomputes from the operation's inputs with the independent
reference module, or tests a property the method must have.  None compares
against a stored copy of earlier output.  A check is called only for an
operation that returned normally (exit code 0 for CLI calls); it signals a
wrong result by raising CheckFailed and returns what later checks of the
same pass need.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import reference as ref

EPS = float(np.finfo(float).eps)

# Slack on an explicit a-priori bound: the bound is a theorem, so only the
# roundoff of the computed error norm may exceed it.
BOUND_SLACK = 1e-9
# Estimated order at the finest pair of levels against the theoretical p+1-l.
ORDER_TOL = 0.15
# Relative slack when a projection error must exceed the L2-best error: near
# 1e-13 both norms carry roundoff of about this relative size.
BEST_SLACK = 1e-3
# Roundoff floor for norms of quantities that vanish exactly: coefficient
# rounding is amplified by h^-l in the l-th derivative.
ZERO_FLOOR = 64.0 * EPS
# Galerkin orthogonality and moments, relative to the scale of the
# quantities involved; both are roundoff-level when the projector is right.
ORTHO_TOL = 1e-10
MOMENT_TOL = 1e-10
# Reported error norms against the reference: a relative part for the
# different quadrature rules and algorithms, plus the roundoff of the
# pointwise difference u - s, a few eps times the l-th derivative of u,
# amplified by h_min^-l.
NORM_RTOL = 1e-6
NORM_FLOOR = 16.0 * EPS
# The package's own cross-check tolerance between the two Ritz routes.
ROUTE_TOL = 1e-8
# Eigenvalues carry an absolute error of about eps * lambda_max from the
# Cholesky reduction of the generalized problem; allow four times that.
EIG_ROUNDOFF = 4.0
EIG_LOWEST = 6


class CheckFailed(Exception):
    """The operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _read_study(path: Path, l: int) -> tuple[list[float], list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["h"]) for r in rows], [float(r[f"err_l{l}"]) for r in rows]


def converge_study(op, result, outdir: Path, earlier: dict):
    """Errors of a study: reference values, bounds, orders, best approximation.

    Each error matches the reference's independent Q or Ritz projection.
    With r = p + 1 the paper's bound (h/pi)^(r-l) |u|_{H^r} holds for
    p >= 2q - l - 1, and there the order is p + 1 - l.  Any spline's L2
    error is at least that of the L2 projection.
    """
    prm = op.params
    p, q = prm["p"], prm["q"]
    _require((outdir / "error.svg").is_file(), "error.svg missing")
    r = p + 1
    semi = ref.sin4x_seminorm(r)
    for l in prm["l"]:
        hs, errs = _read_study(outdir / f"error_p{p}_l{l}.csv", l)
        _require(len(hs) == prm["levels"], f"l={l}: {len(hs)} rows")
        for i, (h, e) in enumerate(zip(hs, errs)):
            elements = 2 ** (i + 1)
            _require(abs(h * elements - 1.0) <= 4 * EPS, f"l={l}: h={h}")
            _require(math.isfinite(e) and e > 0.0, f"l={l}: error {e}")
            want = ref.ritz_type_error("sin4x", prm["projector"], p, q, elements, l)
            floor = NORM_FLOOR * ref.sin4x_seminorm(l) * h ** (-l)
            _require(abs(e - want) <= NORM_RTOL * want + floor,
                     f"l={l} h={h}: error {e:.6e}, reference {want:.6e}")
            if p >= 2 * q - l - 1:
                bound = ref.maximal_smoothness_bound(h, r, l) * semi
                _require(e <= bound * (1 + BOUND_SLACK),
                         f"l={l} h={h}: error {e:.3e} above bound {bound:.3e}")
            if l == 0:
                best = ref.l2_projection_error("sin4x", p, elements)
                _require(e >= best * (1 - BEST_SLACK),
                         f"h={h}: error {e:.4e} below the L2-best {best:.4e}")
        if p >= 2 * q - l - 1:
            order = math.log(errs[-2] / errs[-1]) / math.log(hs[-2] / hs[-1])
            _require(abs(order - (p + 1 - l)) <= ORDER_TOL,
                     f"l={l}: finest-pair order {order:.3f}, expected {p + 1 - l}")


def rq_difference(op, result, outdir: Path, earlier: dict):
    """Ritz minus Q: a polynomial of degree q-1, zero iff p >= 3q - 1.

    Each norm matches the reference's polynomial difference of its own Q and
    Ritz projections, up to the roundoff floor.  Rows are flagged exactly
    zero iff p >= 3q - 1; derivative orders l >= q annihilate the
    polynomial, so those norms sit at the roundoff floor.
    Otherwise the difference is not identically zero (it superconverges, so
    only the coarse levels rise above roundoff), and for p >= 2q - 1 the
    paper's difference bound applies at every level.
    """
    p, q = op.params["p"], op.params["q"]
    table = json.loads(result)
    hs = table["h"]
    flags = table["exact_zero"]
    _require(len(hs) == len(flags) == op.params["levels"],
             f"{len(hs)} rows, {len(flags)} flags")
    _require(all(f == (p >= 3 * q - 1) for f in flags),
             f"exact-zero flags {flags}, expected all {p >= 3 * q - 1}")
    r = p + 1
    semi = ref.sin4x_seminorm(r)
    for l in op.params["l"]:
        diffs = table["errors"][f"l{l}"]
        floors = [ZERO_FLOOR * h ** (-l) for h in hs]
        for i, (h, d, floor) in enumerate(zip(hs, diffs, floors)):
            want = ref.ritz_minus_q_norm("sin4x", p, q, 2 ** (i + 1), l)
            _require(abs(d - want) <= NORM_RTOL * want + floor,
                     f"l={l} h={h}: difference {d:.6e}, reference {want:.6e}")
        if l >= q or p >= 3 * q - 1:
            for h, d, floor in zip(hs, diffs, floors):
                _require(d <= floor, f"l={l} h={h}: {d:.3e} above roundoff {floor:.3e}")
            continue
        _require(any(d > floor for d, floor in zip(diffs, floors)),
                 f"l={l}: difference vanished at every level")
        if p < 2 * q - 1:
            continue
        # inverse-inequality factors d_i = sqrt(i(i+1)(i+2)(i+3)/2), q-l <= i < q
        factor = math.prod(math.sqrt(i * (i + 1) * (i + 2) * (i + 3) / 2.0)
                           for i in range(q - l, q))
        for h, d in zip(hs, diffs):
            bound = ref.maximal_smoothness_bound(h, r, 0) * semi * factor
            _require(d <= bound * (1 + BOUND_SLACK),
                     f"l={l} h={h}: difference {d:.3e} above bound {bound:.3e}")


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def _projection_properties(target: str, projector: str, p: int, q: int,
                           knots: np.ndarray, coeffs: np.ndarray) -> None:
    """Galerkin orthogonality, endpoint data and moments, recomputed."""
    u = ref.TARGETS[target]
    breaks = ref.breakpoints_of(knots)
    x, w = ref.gauss_points(breaks)
    m = 0 if projector == "l2" else q
    resid = u(x, m) - ref.spline_values(knots, coeffs, p, x, m)
    gal = ref.weighted_load(knots, p, m, x, w, resid)
    scale = math.sqrt(float(np.sum(u(x, m) ** 2 * w))) * ref.basis_norms(knots, p, m, x, w)
    worst = float(np.max(np.abs(gal) / scale))
    _require(worst <= ORTHO_TOL, f"Galerkin residual {worst:.2e} in the order-{m} product")

    a = breaks[0]
    h_min = float(np.min(np.diff(breaks)))
    matched = {"q": range(q), "qtilde": range(1, q)}.get(projector, range(0))
    for l in matched:
        want = float(u(np.array([a]), l)[0])
        got = float(ref.spline_values(knots, coeffs, p, np.array([a]), l)[0])
        _require(abs(got - want) <= ZERO_FLOOR * h_min ** (-l) * max(1.0, abs(want)),
                 f"left-endpoint derivative {l}: {got!r} vs {want!r}")

    err = u(x, 0) - ref.spline_values(knots, coeffs, p, x, 0)
    powers = {"ritz": range(q), "qtilde": range(1)}.get(projector, range(0))
    for i in powers:
        moment = abs(float(np.sum(err * x**i * w)))
        size = max(1.0, float(np.sum(np.abs(u(x, 0)) * x**i * w)))
        _require(moment <= MOMENT_TOL * size, f"moment x^{i}: residual {moment:.2e}")


def project_report(op, result, outdir: Path, earlier: dict):
    """report.json of a CLI projection, rebuilt and checked with the reference."""
    report = json.loads((outdir / "report.json").read_text())
    prm = op.params
    p, q = prm["p"], prm["q"]
    _require((report["p"], report["k"], report["q"], report["projector"])
             == (p, p - 1, q, prm["projector"]), "report parameters differ from the call")
    knots = np.array(report["knots"])
    coeffs = np.array(report["coefficients"])
    _require(np.array_equal(ref.breakpoints_of(knots), np.array(prm["breaks"])),
             "report knots do not sit on the requested breakpoints")
    _require(np.array_equal(knots, ref.clamped_knots(np.array(prm["breaks"]), p)),
             "report knots are not the clamped C^{p-1} knot vector")
    _projection_properties(prm["target"], prm["projector"], p, q, knots, coeffs)

    u = ref.TARGETS[prm["target"]]
    l_max = 0 if prm["projector"] == "l2" else q
    _require(sorted(report["errors"]) == [f"l{l}" for l in range(l_max + 1)],
             f"error orders {sorted(report['errors'])}")
    breaks = ref.breakpoints_of(knots)
    x, w = ref.gauss_points(breaks)
    h_min = float(np.min(np.diff(breaks)))
    for l in range(l_max + 1):
        want = ref.error_norm(u, knots, coeffs, p, l)
        got = report["errors"][f"l{l}"]
        size = math.sqrt(float(np.sum(u(x, l) ** 2 * w)))
        _require(abs(got - want) <= NORM_RTOL * want + NORM_FLOOR * size * h_min ** (-l),
                 f"reported l{l} error {got:.6e}, reference {want:.6e}")
    return {"knots": knots, "coefficients": coeffs}


@lru_cache(maxsize=None)
def _correction_route(target: str, p: int, q: int, breaks: tuple[float, ...]) -> np.ndarray:
    from ritzspline.functions import resolve_function
    from ritzspline.mesh import Breakpoints, make_space
    from ritzspline.projectors import ritz_project

    space = make_space(p, p - 1, Breakpoints(breaks))
    return ritz_project(space, q, resolve_function(target), method="correction").coeffs


def saddle_route(op, result, outdir: Path, earlier: dict):
    """The saddle route agrees with the correction route and is a Ritz projection."""
    prm = op.params
    p, q = prm["p"], prm["q"]
    knots = np.array(result["knots"])
    coeffs = np.array(result["coefficients"])
    if prm["against"] is not None:
        _require(prm["against"] in earlier, f"{prm['against']} gave no checked result")
        corr = earlier[prm["against"]]["coefficients"]
    else:
        corr = _correction_route(prm["target"], p, q, prm["breaks"])
    gap = float(np.max(np.abs(coeffs - corr)))
    scale = max(1.0, float(np.max(np.abs(corr))))
    _require(gap <= ROUTE_TOL * scale,
             f"saddle and correction routes differ by {gap:.2e} (tolerance {ROUTE_TOL * scale:.1e})")
    _projection_properties(prm["target"], "ritz", p, q, knots, coeffs)


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def spectrum(op, result, outdir: Path, earlier: dict):
    """Mode count, upper bounds on the beam eigenvalues, lowest modes.

    The mode count is dim - 4 = p + N - 4; every discrete eigenvalue bounds
    the continuous one from above up to eps * lambda_max; the lowest modes
    match an independent assembly and eigensolve.
    """
    p, elements = op.params["p"], op.params["elements"]
    report = json.loads((outdir / "spectrum.json").read_text())
    lam = np.array(report["lambda_h"])
    _require(report["n"] == lam.size == p + elements - 4,
             f"{lam.size} modes, expected {p + elements - 4}")
    _require(bool(np.all(np.diff(lam) >= 0)), "eigenvalues not ascending")
    slack = EIG_ROUNDOFF * EPS * float(lam[-1])
    beam = np.array(ref.beam_eigenvalues(lam.size))
    worst = int(np.argmin(lam - beam))
    _require(lam[worst] >= beam[worst] - slack,
             f"mode {worst + 1}: {lam[worst]!r} below the beam eigenvalue {beam[worst]!r}")
    low = ref.biharmonic_lowest(p, elements, EIG_LOWEST)
    gap = float(np.max(np.abs(low - lam[:EIG_LOWEST])))
    _require(gap <= slack, f"lowest modes differ from the reference by {gap:.2e}")
