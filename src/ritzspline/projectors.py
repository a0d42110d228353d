"""Projectors onto spline spaces: L2, boundary-interpolating, Ritz, and
the mean-preserving variant.

The three Ritz-type projectors of order q share one assembly: L2-project
u^(q) onto the q-times derived space, integrate q times from the left, and
add the value s^(i)(a) as the constant of integration at each order i.
They differ only in those values.  The boundary-interpolating projector
takes u^(i)(a) for all i < q; the classical Ritz projector fixes all q by
moments against the first q Legendre polynomials (its saddle-point system
in derived coordinates); the mean-preserving variant fixes only the
constant that way.  The Ritz projector is also computed as the boundary
projection plus a degree-(q-1) polynomial correction; that route is kept
as a cross-check of the assembly.  Both routes fix their polynomial part
with the one polynomial L2 projection, ``poly_l2_project``, which the
closed-form tests and the dense-KKT reference check independently.  A
polynomial part is a coefficient array c in the shifted monomials (x-a)^i,
a the left end of the breakpoints, evaluated with ``npp.polyval(x - a, c)``.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from numpy.linalg import solve as dense_solve
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as npp

from .functions import SmoothFunction
from .mesh import (
    Breakpoints,
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
    load_vector,
    mesh_points,
)


def l2_project(space: SplineSpace, u: SmoothFunction) -> Spline:
    """Best L2 approximation of ``u`` in the space (banded normal equations)."""
    n = default_order(space.degree, space.breakpoints)
    rhs = load_vector(space, u.as_integrand(), n)
    return Spline(space, gram_matrix(space).solve_spd(rhs))


def poly_l2_project(deg: int, f, xi: Breakpoints, n: int) -> np.ndarray:
    """L2 projection of the vectorized callable ``f`` onto polynomials of
    degree <= deg on (xi.a, xi.b): the coefficients of (x-a)^i, i = 0..deg.

    Solves M c = r with M_ji = ((x-a)^i, g_j) and r_j = (f, g_j) against the
    shifted Legendre polynomials g_j, using the n-point Gauss rule on each
    element of xi; M is exact once n > deg.
    """
    a, b = xi.a, xi.b
    xs, ws = mesh_points(xi, n)
    x = xs.ravel()
    t = x - a
    tested = npleg.legvander(2.0 * t / (b - a) - 1.0, deg).T * ws.ravel()
    return dense_solve(tested @ npp.polyvander(t, deg), tested @ f(x))


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


def _integrate(s: Spline, values) -> Spline:
    """Integrate from the left len(values) times, adding values[i] after the
    step that reaches order i; the clamped basis sums to one."""
    for v in reversed(values):
        s = integrate_from_left(s)
        s = Spline(s.space, s.coeffs + v)
    return s


def _ritz_type(space: SplineSpace, q: int, u: SmoothFunction, m: int) -> Spline:
    """Order-q Ritz-type projection: s^(q) is the L2 projection w of u^(q)
    onto the q-times derived space, and s^(i)(a) = u^(i)(a) for m <= i < q.

    The lower part sum_{i<m} c_i (x-a)^i is fixed by the moments
    (u - s, g_j) = 0, j < m, against the shifted Legendre polynomials: it is
    the polynomial L2 projection of u - t onto degree m - 1, where t is s
    without that part.  With m = q this is the Ritz saddle-point system in
    derived coordinates: the polynomials span the kernel of the order-q
    stiffness and, the moment matrix being nonsingular, the multipliers
    vanish.
    """
    _check_order(space, q, u)
    a = space.breakpoints.a
    w = l2_project(derived_space(space, q), u.derivative(q))
    s = _integrate(w, u.eval(a, range(m, q)))
    if m == 0:
        return s
    t = _integrate(s, np.zeros(m))
    resid = lambda x: u.eval(x) - eval_spline_many(t, x)
    n = default_order(space.degree, space.breakpoints)  # n >= p + 1 >= m: M exact
    c = poly_l2_project(m - 1, resid, space.breakpoints, n)
    return _integrate(s, [factorial(i) * ci for i, ci in enumerate(c)])  # s^(i)(a) = i! c_i


def q_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Boundary-interpolating Ritz-type projection of order q.

    Closed form of the one-step recursion Q_q u = u(a) + J Q_{q-1} u':
    L2-project the q-th derivative onto the q-times derived space and
    integrate from the left q times, adding u^(i)(a) at each order i.
    """
    return _ritz_type(space, q, u, 0)


def qtilde_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Mean-preserving variant: the constant term is fixed by (s, 1) = (u, 1)."""
    return _ritz_type(space, q, u, min(q, 1))


def ritz_correction(
    space: SplineSpace, q: int, u: SmoothFunction, qu: Spline | None = None
) -> np.ndarray:
    """Coefficients in (x-a)^i of the degree-(q-1) polynomial equal to the
    Ritz minus the boundary projection.

    It is the polynomial L2 projection of the boundary-projection error and
    vanishes identically when the space contains all polynomials of degree
    3q - 1.
    """
    _check_order(space, q, u)
    if q == 0:
        return np.zeros(1)
    if qu is None:
        qu = q_project(space, q, u)
    n = default_order(space.degree, space.breakpoints)
    residual = lambda x: u.eval(x) - eval_spline_many(qu, x)
    return poly_l2_project(q - 1, residual, space.breakpoints, n)


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
        return _ritz_type(space, q, u, q)
    raise ValueError(f"unknown method '{method}' (expected 'correction' or 'saddle')")
