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

Every projector is computed for a list of spaces of one degree at once, the
levels of a convergence study, as one array program on their joined
coefficient vector: one assembly and banded solve for all L2 projections,
one padded ``cumsum`` per integration, one Vandermonde build and one
stacked solve for all polynomial fits, one change of basis for all
corrections.  Sums whose rounding depends on their length stay per space,
so each projection is that of its space alone, bit for bit; the one-space
functions are the one-element case.
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
    _antiderivatives,
    _poly_coefficients,
    make_space,
    splines,
)
from .quadrature import (
    GridTable,
    default_order,
    error_grid_sample,
    grid_tables,
    gram_bands,
    load_values,
    mesh_points,
    solve_blocks,
)


def l2_project(space: SplineSpace, u: SmoothFunction) -> Spline:
    """Best L2 approximation of ``u`` in the space (banded normal equations)."""
    return l2_projections([space], u)[0]


def l2_projections(spaces: Sequence[SplineSpace], u: SmoothFunction) -> list[Spline]:
    """:func:`l2_project` of u onto each of several spaces of one degree."""
    return splines(spaces, _l2_coefficients(spaces, u))


def _l2_coefficients(spaces: Sequence[SplineSpace], u: SmoothFunction) -> np.ndarray:
    """Joined coefficients of the L2 projections of u onto spaces of one
    degree, as one block-diagonal system.

    One basis sweep tabulates the load grid and the exact Gram grid of every
    space, one ``u.eval`` call samples u on all load grids, and one
    assembly and one banded solve serve every space.  Each sum runs over a
    space's own terms in its own order, so each projection is that of a call
    for its space alone, bit for bit.
    """
    p, count = spaces[0].degree, len(spaces)
    ns = [default_order(p, space.breakpoints) for space in spaces]
    load, gram = grid_tables(spaces, [ns, [default_order(p)] * count], (0,))
    rhs = load_values(load, u.eval(load.points, 0), 0)
    return solve_blocks(gram_bands(gram, 0), rhs, [space.dim for space in spaces])


def poly_l2_project(deg: int, f, xi: Breakpoints, n: int) -> np.ndarray:
    """L2 projection of the vectorized callable ``f`` onto polynomials of
    degree <= deg on (xi.a, xi.b): the coefficients of (x-a)^i, i = 0..deg.

    Solves M c = r with M_ji = ((x-a)^i, g_j) and r_j = (f, g_j) against the
    shifted Legendre polynomials g_j, using the n-point Gauss rule on each
    element of xi; M is exact once n > deg.
    """
    xs, ws = mesh_points(xi, n)
    return _poly_fits(deg, f(xs.ravel()), [xi], xs.ravel(), ws.ravel(), (0, xs.size))[0]


def _poly_fits(
    deg: int,
    values: np.ndarray,
    meshes: Sequence[Breakpoints],
    points: np.ndarray,
    weights: np.ndarray,
    ends: Sequence[int],
) -> np.ndarray:
    """:func:`poly_l2_project` on each mesh, row i for meshes[i], of the
    function taking ``values`` at ``points``: the joined flattened Gauss
    grids of the meshes, those of meshes[i] being points[ends[i]:ends[i+1]],
    with their ``weights``.

    The Vandermonde matrices are built once on the joined grids, pointwise;
    the moment sums are the products ``tested @ ...`` of each mesh's own
    columns, and one stacked solve takes every moment system.
    """
    sizes = np.diff(ends)
    t = points - np.array([xi.a for xi in meshes]).repeat(sizes)
    width = np.array([xi.b - xi.a for xi in meshes]).repeat(sizes)
    tested = npleg.legvander(2.0 * t / width - 1.0, deg).T * weights
    powers = npp.polyvander(t, deg)
    cols = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    moments = np.array([tested[:, c] @ powers[c] for c in cols])
    rhs = np.array([tested[:, c] @ values[c] for c in cols])
    return dense_solve(moments, rhs[..., None])[..., 0]


def _residual_fits(
    deg: int,
    u: SmoothFunction,
    spaces: Sequence[SplineSpace],
    coeffs: np.ndarray,
    sample: GridTable | None,
) -> np.ndarray:
    """Polynomial L2 projection of u - s onto degree ``deg`` on the error-norm
    grid of each space, row i for spaces[i], s the splines with joined
    coefficients ``coeffs``, from ``sample`` (u^(0) and the order-0 table of
    the spaces there) or, without one, from a new sample."""
    sample = error_grid_sample(u, spaces, (0,), sample)
    resid = sample.u_values((0,))[0] - sample.spline(coeffs, (0,))[0]
    meshes = [space.breakpoints for space in spaces]
    return _poly_fits(deg, resid, meshes, sample.points, sample.weights, sample.ends)


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


def _integrate(chain: Sequence[Sequence[SplineSpace]], lo: int, coeffs, values) -> np.ndarray:
    """Integrate the splines with joined coefficients ``coeffs`` in the
    spaces chain[lo] from the left len(values) times, adding values[i], one
    value per space, after the step that reaches order i; the clamped basis
    sums to one.  chain[j + 1] holds the antiderived spaces of chain[j]."""
    for step, v in enumerate(reversed(values)):
        spaces = chain[lo + step]
        coeffs = _antiderivatives(spaces, coeffs)
        coeffs = coeffs + v.repeat([space.dim + 1 for space in spaces])
    return coeffs


def _ritz_types(
    spaces: Sequence[SplineSpace],
    q: int,
    u: SmoothFunction,
    m: int,
    sample: GridTable | None,
) -> np.ndarray:
    """Joined coefficients of the order-q Ritz-type projection onto each of
    several spaces of one degree: s^(q) is the L2 projection w of u^(q)
    onto the q-times derived space, and s^(i)(a) = u^(i)(a) for m <= i < q.

    The lower part sum_{i<m} c_i (x-a)^i is fixed by the moments
    (u - s, g_j) = 0, j < m, against the shifted Legendre polynomials: it is
    the polynomial L2 projection of u - t onto degree m - 1, where t is s
    without that part.  With m = q this is the Ritz saddle-point system in
    derived coordinates: the polynomials span the kernel of the order-q
    stiffness and, the moment matrix being nonsingular, the multipliers
    vanish.  ``sample``, when given, is the sample of the spaces on their
    error-norm grids (:func:`quadrature.sample_error_grids`), holding order
    0.  Every step is one array program over all spaces, each space's
    coefficients those of a call for it alone, bit for bit; u^(i)(a) is
    evaluated once per distinct left end a.
    """
    for space in spaces:
        _check_order(space, q, u)
    chain = [[derived_space(space, q - i) for space in spaces] for i in range(q)]
    chain.append(list(spaces))
    s = _l2_coefficients(chain[0], u.derivative(q))
    lefts = [space.breakpoints.a for space in spaces]
    at = {a: u.eval(a, range(m, q)) for a in dict.fromkeys(lefts)}
    s = _integrate(chain, 0, s, np.array([at[a] for a in lefts]).T)
    if m:
        t = _integrate(chain, q - m, s, np.zeros((m, len(spaces))))
        c = _residual_fits(m - 1, u, spaces, t, sample)  # n >= p + 1 >= m points: M exact
        s = _integrate(chain, q - m, s, [factorial(i) * ci for i, ci in enumerate(c.T)])
    return s


def q_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Boundary-interpolating Ritz-type projection of order q.

    Closed form of the one-step recursion Q_q u = u(a) + J Q_{q-1} u':
    L2-project the q-th derivative onto the q-times derived space and
    integrate from the left q times, adding u^(i)(a) at each order i.
    """
    return q_projections([space], q, u)[0]


def q_projections(spaces: Sequence[SplineSpace], q: int, u: SmoothFunction) -> list[Spline]:
    """:func:`q_project` onto each of several spaces of one degree."""
    return splines(spaces, _ritz_types(spaces, q, u, 0, None))


def qtilde_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Mean-preserving variant: the constant term is fixed by (s, 1) = (u, 1)."""
    return qtilde_projections([space], q, u)[0]


def qtilde_projections(
    spaces: Sequence[SplineSpace],
    q: int,
    u: SmoothFunction,
    sample: GridTable | None = None,
) -> list[Spline]:
    """:func:`qtilde_project` onto each of several spaces of one degree;
    ``sample`` as for :func:`ritz_projections`."""
    return splines(spaces, _ritz_types(spaces, q, u, min(q, 1), sample))


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
    return _residual_fits(q - 1, u, [space], qu.coeffs, sample)[0]


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
        return ritz_projections([space], q, u, None if qu is None else [qu])[0]
    if method == "saddle":
        return splines([space], _ritz_types([space], q, u, q, None))[0]
    raise ValueError(f"unknown method '{method}' (expected 'correction' or 'saddle')")


def ritz_projections(
    spaces: Sequence[SplineSpace],
    q: int,
    u: SmoothFunction,
    qus: Sequence[Spline] | None = None,
    sample: GridTable | None = None,
) -> list[Spline]:
    """:func:`ritz_project` onto each of several spaces of one degree by the
    correction route, from their boundary projections ``qus`` when given.

    ``sample``, when given, is the sample of the spaces on their error-norm
    grids (:func:`quadrature.sample_error_grids`) holding order 0.  All
    corrections come from one residual fit and one change of basis.
    """
    if qus is None:
        qus = q_projections(spaces, q, u)
    if q == 0:
        return list(qus)
    for space in spaces:
        _check_order(space, q, u)
    qc = np.concatenate([qu.coeffs for qu in qus])
    corr = _residual_fits(q - 1, u, spaces, qc, sample)
    return splines(spaces, qc + _poly_coefficients(corr, spaces))
