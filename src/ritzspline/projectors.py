"""Projectors onto spline spaces: L2, boundary-interpolating, Ritz, and
the mean-preserving variant.

The boundary-interpolating projector of order q matches the first q
derivatives at the left endpoint, is a Galerkin projection in the order-q
semi-inner product, and reproduces the right-endpoint data whenever the
degree is large enough.  It is computed in closed form: project the q-th
derivative onto the q-times derived spline space, integrate q times from
the left, and add the Taylor polynomial of the data at a.  The classical
Ritz projector of the same order differs from it by a polynomial of degree
q - 1, recovered either as a polynomial correction or by solving the
constrained (saddle-point) Galerkin system in derived coordinates, where it
splits into a banded L2 solve and a q x q moment system; the two routes are
kept as mutual oracles.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import solve as dense_solve
from numpy.polynomial import legendre as npleg

from .functions import SmoothFunction
from .mesh import (
    Breakpoints,
    Polynomial,
    Spline,
    SplineSpace,
    eval_spline_many,
    integrate_from_left,
    make_space,
    poly_to_spline,
)
from .quadrature import (
    default_order,
    gram_matrix,
    inner_product,
    load_vector,
    mesh_points,
)


def l2_project(space: SplineSpace, u: SmoothFunction) -> Spline:
    """Best L2 approximation of ``u`` in the space (banded normal equations)."""
    n = default_order(space.degree, space.breakpoints)
    rhs = load_vector(space, u.as_integrand(), n)
    return Spline(space, gram_matrix(space).solve_spd(rhs))


def _legendre_coefficients(
    deg: int, f, interval: tuple[float, float], xi: Breakpoints, n: int
) -> np.ndarray:
    """Coefficients of the L2 projection onto P_deg in the Legendre basis."""
    a, b = interval
    xs, ws = mesh_points(xi, n)
    flat = xs.ravel()
    mapped = 2.0 * (flat - a) / (b - a) - 1.0
    vander = npleg.legvander(mapped, deg)
    fv = np.asarray(f(flat)) * ws.ravel()
    raw = vander.T @ fv
    scale = (2.0 * np.arange(deg + 1) + 1.0) / (b - a)
    return raw * scale


def _legendre_to_polynomial(coeffs: np.ndarray, interval: tuple[float, float]) -> Polynomial:
    a, b = interval
    mono_s = npleg.leg2poly(np.atleast_1d(coeffs))  # monomials in s = 2(x-a)/(b-a) - 1
    scale = 2.0 / (b - a)
    # Horner composition with s = scale*(x-a) - 1, in (x-a) coefficient form
    out = np.zeros(mono_s.size)
    for c in mono_s[::-1]:
        shifted = -out
        shifted[1:] += scale * out[:-1]
        shifted[0] += c
        out = shifted
    return Polynomial(out, interval)


def poly_l2_project(
    deg: int,
    u,
    interval: tuple[float, float],
    xi: Breakpoints | None = None,
    n: int | None = None,
) -> Polynomial:
    """L2 projection onto polynomials of degree <= deg via Legendre expansion.

    ``u`` may be a smooth function, a spline (integrated exactly over its own
    breakpoints), or a plain vectorized callable.
    """
    if deg < 0:
        return Polynomial(np.zeros(1), interval)
    if isinstance(u, Spline):
        if xi is None:
            xi = u.space.breakpoints
        if n is None:
            n = default_order((u.space.degree + deg) // 2)
        f = lambda x: eval_spline_many(u, x)
    else:
        if xi is None:
            xi = Breakpoints(np.array(interval, dtype=float))
        if n is None:
            n = default_order(deg, xi)
        f = u.as_integrand() if isinstance(u, SmoothFunction) else u
    return _legendre_to_polynomial(
        _legendre_coefficients(deg, f, interval, xi, n), interval
    )


def taylor_polynomial(u: SmoothFunction, q: int, interval: tuple[float, float]) -> Polynomial:
    """Taylor polynomial of degree q-1 of ``u`` at the left endpoint."""
    a, _ = interval
    coeffs = np.zeros(max(q, 1))
    fact = 1.0
    for ell in range(q):
        coeffs[ell] = u.eval(a, ell) / fact
        fact *= ell + 1
    return Polynomial(coeffs, interval)


def _check_order(space: SplineSpace, q: int, u: SmoothFunction) -> None:
    if q < 0:
        raise ValueError("requires q >= 0")
    if q > space.smoothness + 1:
        raise ValueError(
            f"requires q <= k+1 (recursion leaves the smoothness chain): "
            f"got q={q}, k={space.smoothness}"
        )
    if q > u.max_order:
        raise ValueError(
            f"requires q <= max_order of the function: got q={q}, "
            f"max_order={u.max_order}"
        )


def derived_space(space: SplineSpace, q: int) -> SplineSpace:
    """The q-times derived space (degree p-q, smoothness k-q)."""
    return make_space(space.degree - q, space.smoothness - q, space.breakpoints)


def q_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Boundary-interpolating Ritz-type projection of order q.

    Closed form of the one-step recursion: L2-project the q-th derivative
    onto the q-times derived space, integrate from the left q times, and add
    the left-endpoint Taylor polynomial of degree q-1.
    """
    _check_order(space, q, u)
    if q == 0:
        return l2_project(space, u)
    w = l2_project(derived_space(space, q), u.derivative(q))
    s = w
    for _ in range(q):
        s = integrate_from_left(s)
    return s + poly_to_spline(taylor_polynomial(u, q, space.interval), space)


def qtilde_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Mean-preserving variant: the constant term is fixed by (s, 1) = (u, 1)."""
    _check_order(space, q, u)
    if q == 0:
        return l2_project(space, u)
    inner = q_project(derived_space(space, 1), q - 1, u.derivative(1))
    v = integrate_from_left(inner)
    xi = space.breakpoints
    residual = lambda x: u.eval(x) - eval_spline_many(v, x)
    n = default_order(space.degree, xi)
    c = inner_product(residual, lambda x: 1.0, xi, n) / (xi.b - xi.a)
    return v + poly_to_spline(Polynomial([c], space.interval), space)


def ritz_correction(
    space: SplineSpace, q: int, u: SmoothFunction, qu: Spline | None = None
) -> Polynomial:
    """Degree-(q-1) polynomial equal to the Ritz minus the boundary projection.

    It is the polynomial L2 projection of the boundary-projection error and
    vanishes identically when the space contains all polynomials of degree
    3q - 1.
    """
    _check_order(space, q, u)
    if q == 0:
        return Polynomial(np.zeros(1), space.interval)
    if qu is None:
        qu = q_project(space, q, u)
    n = default_order(space.degree, space.breakpoints)
    residual = lambda x: u.eval(x) - eval_spline_many(qu, x)
    return poly_l2_project(q - 1, residual, space.interval, space.breakpoints, n)


def _ritz_saddle(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Ritz projection from the saddle-point system: order-q stiffness plus
    q moment constraints against the shifted Legendre polynomials g_j.

    With s = J^q w + sum_i c_i (x-a)^i, w in the q-times derived space and J
    integration from the left, s^(q) = w: the stiffness block is the derived
    Gram matrix, the polynomials span its kernel and, M being nonsingular,
    the multipliers vanish.  What remains is the banded L2 solve for w and
    the triangular system M c = r, M_ji = ((x-a)^i, g_j), r_j = (u - J^q w, g_j).
    """
    s = l2_project(derived_space(space, q), u.derivative(q))
    for _ in range(q):
        s = integrate_from_left(s)
    if q == 0:
        return s
    a, b = space.interval
    xs, ws = mesh_points(space.breakpoints, default_order(space.degree, space.breakpoints))
    x = xs.ravel()
    # rows: g_j times the Gauss weights; p + 1 >= q points per element make M exact
    tested = npleg.legvander(2.0 * (x - a) / (b - a) - 1.0, q - 1).T * ws.ravel()
    moments = tested @ (x[:, None] - a) ** np.arange(q)
    c = dense_solve(moments, tested @ (u.eval(x) - eval_spline_many(s, x)))
    return s + poly_to_spline(Polynomial(c, space.interval), space)


def ritz_project(
    space: SplineSpace,
    q: int,
    u: SmoothFunction,
    method: str = "correction",
    qu: Spline | None = None,
) -> Spline:
    """Classical Ritz projection of order q.

    ``method='correction'`` adds the polynomial correction to the
    boundary-interpolating projection, ``qu`` when given; ``method='saddle'``
    solves the constrained Galerkin system in derived coordinates and serves
    as an independent check.
    """
    _check_order(space, q, u)
    if method == "correction":
        if qu is None:
            qu = q_project(space, q, u)
        if q == 0:
            return qu
        corr = ritz_correction(space, q, u, qu)
        return qu + poly_to_spline(corr, space)
    if method == "saddle":
        return _ritz_saddle(space, q, u)
    raise ValueError(f"unknown method '{method}' (expected 'correction' or 'saddle')")
