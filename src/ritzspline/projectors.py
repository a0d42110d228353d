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

from collections.abc import Sequence
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
    integrate_from_left,
    make_space,
    poly_to_spline,
)
from .quadrature import (
    GridTable,
    default_order,
    error_grid_sample,
    eval_on_grids,
    grid_tables,
    gram_matrix,
    load_vector,
    mesh_points,
)


def l2_project(space: SplineSpace, u: SmoothFunction) -> Spline:
    """Best L2 approximation of ``u`` in the space (banded normal equations)."""
    return l2_projections([space], u)[0]


def l2_projections(spaces: Sequence[SplineSpace], u: SmoothFunction) -> list[Spline]:
    """:func:`l2_project` of u onto each of several spaces of one degree.

    One basis sweep tabulates the load grid and the exact Gram grid of every
    space, and one ``u.eval`` call samples u on all load grids.  Assembly
    and solve stay per space, so each projection is that of a call for its
    space alone, bit for bit.
    """
    p, count = spaces[0].degree, len(spaces)
    ns, m = [default_order(p, space.breakpoints) for space in spaces], default_order(p)
    tables = grid_tables([*spaces, *spaces], [*ns, *[m] * count], (0,))
    fxs = eval_on_grids(u, [table.points for table in tables[:count]], 0)
    out = []
    for space, n, load, gram, fx in zip(spaces, ns, tables[:count], tables[count:], fxs):
        rhs = load_vector(space, fx, n, 0, load)
        out.append(Spline(space, gram_matrix(space, 0, m, gram).solve_spd(rhs)))
    return out


def poly_l2_project(deg: int, f, xi: Breakpoints, n: int) -> np.ndarray:
    """L2 projection of the vectorized callable ``f`` onto polynomials of
    degree <= deg on (xi.a, xi.b): the coefficients of (x-a)^i, i = 0..deg.

    Solves M c = r with M_ji = ((x-a)^i, g_j) and r_j = (f, g_j) against the
    shifted Legendre polynomials g_j, using the n-point Gauss rule on each
    element of xi; M is exact once n > deg.
    """
    return _poly_fit(deg, f(mesh_points(xi, n)[0].ravel()), xi, n)


def _poly_fit(deg: int, values: np.ndarray, xi: Breakpoints, n: int) -> np.ndarray:
    """:func:`poly_l2_project` of the function taking ``values`` at the
    flattened n-point Gauss grid of xi."""
    a, b = xi.a, xi.b
    xs, ws = mesh_points(xi, n)
    t = xs.ravel() - a
    tested = npleg.legvander(2.0 * t / (b - a) - 1.0, deg).T * ws.ravel()
    return dense_solve(tested @ npp.polyvander(t, deg), tested @ values)


def _residual_fit(deg: int, u: SmoothFunction, s: Spline, sample: GridTable | None) -> np.ndarray:
    """Polynomial L2 projection of u - s onto degree ``deg`` on the error-norm
    grid of the space of s, from ``sample`` (u^(0) and the order-0 table of
    that space there) or, without one, from a new sample."""
    sample = error_grid_sample(u, s.space, (0,), sample)
    resid = sample.u_values((0,))[0] - sample.spline(s, (0,))[0]
    return _poly_fit(deg, resid, sample.space.breakpoints, sample.points.shape[1])


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


def _ritz_types(
    spaces: Sequence[SplineSpace],
    q: int,
    u: SmoothFunction,
    m: int,
    samples: Sequence[GridTable | None],
) -> list[Spline]:
    """Order-q Ritz-type projection onto each of several spaces of one
    degree: s^(q) is the L2 projection w of u^(q) onto the q-times derived
    space, and s^(i)(a) = u^(i)(a) for m <= i < q.

    The lower part sum_{i<m} c_i (x-a)^i is fixed by the moments
    (u - s, g_j) = 0, j < m, against the shifted Legendre polynomials: it is
    the polynomial L2 projection of u - t onto degree m - 1, where t is s
    without that part.  With m = q this is the Ritz saddle-point system in
    derived coordinates: the polynomials span the kernel of the order-q
    stiffness and, the moment matrix being nonsingular, the multipliers
    vanish.  ``samples[i]``, when not None, is the sample of ``spaces[i]`` on
    its error-norm grid (:func:`quadrature.sample_error_grids`), holding
    order 0.  The L2 projections share one basis sweep
    (:func:`l2_projections`); everything else is per space.
    """
    for space in spaces:
        _check_order(space, q, u)
    ws = l2_projections([derived_space(space, q) for space in spaces], u.derivative(q))
    out = []
    for space, w, sample in zip(spaces, ws, samples, strict=True):
        s = _integrate(w, u.eval(space.breakpoints.a, range(m, q)))
        if m:
            t = _integrate(s, np.zeros(m))
            c = _residual_fit(m - 1, u, t, sample)  # n >= p + 1 >= m Gauss points: M exact
            s = _integrate(s, [factorial(i) * ci for i, ci in enumerate(c)])  # s^(i)(a) = i! c_i
        out.append(s)
    return out


def q_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Boundary-interpolating Ritz-type projection of order q.

    Closed form of the one-step recursion Q_q u = u(a) + J Q_{q-1} u':
    L2-project the q-th derivative onto the q-times derived space and
    integrate from the left q times, adding u^(i)(a) at each order i.
    """
    return q_projections([space], q, u)[0]


def q_projections(spaces: Sequence[SplineSpace], q: int, u: SmoothFunction) -> list[Spline]:
    """:func:`q_project` onto each of several spaces of one degree, with the
    L2 projections of u^(q) sharing one basis sweep."""
    return _ritz_types(spaces, q, u, 0, [None] * len(spaces))


def qtilde_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Mean-preserving variant: the constant term is fixed by (s, 1) = (u, 1)."""
    return qtilde_projections([space], q, u, [None])[0]


def qtilde_projections(
    spaces: Sequence[SplineSpace],
    q: int,
    u: SmoothFunction,
    samples: Sequence[GridTable | None],
) -> list[Spline]:
    """:func:`qtilde_project` onto each of several spaces of one degree, with
    the L2 projections of u^(q) sharing one basis sweep."""
    return _ritz_types(spaces, q, u, min(q, 1), samples)


def ritz_correction(
    space: SplineSpace,
    q: int,
    u: SmoothFunction,
    qu: Spline | None = None,
    sample: GridTable | None = None,
) -> np.ndarray:
    """Coefficients in (x-a)^i of the degree-(q-1) polynomial equal to the
    Ritz minus the boundary projection.

    It is the polynomial L2 projection of the boundary-projection error and
    vanishes identically when the space contains all polynomials of degree
    3q - 1.  ``sample``, when given, is the space's sample on its error-norm
    grid (:func:`quadrature.sample_error_grids`) holding order 0; u and qu
    are then not evaluated again.
    """
    _check_order(space, q, u)
    if q == 0:
        return np.zeros(1)
    if qu is None:
        qu = q_project(space, q, u)
    return _residual_fit(q - 1, u, qu, sample)


def ritz_project(
    space: SplineSpace,
    q: int,
    u: SmoothFunction,
    method: str = "correction",
    qu: Spline | None = None,
    sample: GridTable | None = None,
) -> Spline:
    """Classical Ritz projection of order q.

    ``method='correction'`` adds the polynomial correction to the
    boundary-interpolating projection, ``qu`` when given; ``method='saddle'``
    solves the constrained Galerkin system in derived coordinates and serves
    as an independent check.  ``sample`` as for :func:`ritz_correction`.
    """
    _check_order(space, q, u)
    if method == "correction":
        if qu is None:
            qu = q_project(space, q, u)
        if q == 0:
            return qu
        corr = ritz_correction(space, q, u, qu, sample)
        return qu + poly_to_spline(corr, space)
    if method == "saddle":
        return _ritz_types([space], q, u, q, [sample])[0]
    raise ValueError(f"unknown method '{method}' (expected 'correction' or 'saddle')")
