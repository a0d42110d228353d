"""Projectors onto spline spaces: L2, boundary-interpolating, Ritz, and
the mean-preserving variant.

All four projectors share one assembly: L2-project u^(q) onto the q-times
derived space, integrate q times from the left, and add the value s^(i)(a)
as the constant of integration at each order i.  They differ only in those
values.  The boundary-interpolating projector Q_q takes u^(i)(a) for all
i < q; the classical Ritz projector fixes all q by moments against the first
q Legendre polynomials (its saddle-point system in derived coordinates);
the mean-preserving variant fixes only the constant that way.  At q = 0
there is no constant to fix and all three are the L2 projection, the base
case Q_0 of the recursion Q_q u = u(a) + J Q_{q-1} u'; the L2 projector is
Q_0, which :func:`projection_order` states once for every caller.  The Ritz
projector is computed as the boundary projection plus a degree-(q-1)
polynomial correction: that route is the one the CLI and the studies run,
and the saddle-point solve, ``ritz_project(method='saddle')``, is kept as
its independent check.  Both routes fix their polynomial part with the one
polynomial L2 projection, :func:`_poly_fits`, on the grids of all levels at
once; :func:`poly_l2_project` is its one-mesh case, which the closed-form
tests and the dense-KKT reference check independently.  A polynomial part is a
coefficient array c in the shifted monomials (x-a)^i, a the left end of the
breakpoints, evaluated with ``npp.polyval(x - a, c)``.

Every projector is computed by :meth:`Levels.project`, for u on a list of
spaces of one degree (the levels of a convergence study), as one array
program on their joined coefficient vector: one assembly for all L2 steps,
one padded ``cumsum`` per integration, one Vandermonde build and one
stacked solve for all polynomial fits, one change of basis for all
corrections.  The joined Gram matrix is block diagonal, and
:func:`quadrature.solve_blocks` solves each level's block by itself: one
banded solve of the joined band rounds differently from the per-block
solves from degree 16 (16 subdiagonals) on.  What is evaluated on the
levels' error-norm grids, the load of u at q = 0 and the residual u - s
that the Ritz correction and the mean-preserving variant fit, comes from
the one ``Levels.sample`` and ``Levels.u_values``, which the error report
then reads too.  A ``Levels`` also keeps, per q, the boundary projections
and Ritz corrections computed on it, so the boundary projection, the Ritz
projection and the correction of one ``Levels`` share one Q.  Sums whose rounding depends on their length stay per space, so
each projection is that of its space alone, bit for bit; the one-space
functions are the one-element case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
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
    _frozen,
    _poly_coefficients,
)
from .quadrature import (
    GridTable,
    default_order,
    grid_table,
    gram_bands,
    load_values,
    mesh_points,
    solve_blocks,
)


PROJECTORS = ("l2", "q", "ritz", "qtilde")


def projection_order(projector: str, q: int) -> int:
    """The order of the Ritz-type projection that ``projector``, one of
    :data:`PROJECTORS`, names at order q: q itself, or 0 for the L2
    projector, which is Q_0."""
    if projector not in PROJECTORS:
        raise ValueError(
            f"unknown projector '{projector}'; available: {', '.join(sorted(PROJECTORS))}"
        )
    return 0 if projector == "l2" else q


@dataclass(frozen=True, eq=False)
class Levels:
    """The function u on one or more spaces of one degree: the levels of a
    convergence study, or the one space of a projection.

    ``sample`` is their :class:`quadrature.GridTable` on the error-norm
    grids, the ``default_order(p, xi)``-point grid of each mesh, at every
    order in ``orders`` and order 0: one basis sweep for all levels, made on
    first use.  ``u_values`` gives u^(l) at its points, from one ``u.eval``
    call for all of the sample's orders, also made on first use.  The
    projectors read order 0 there (the load at q = 0, the Ritz correction,
    the mean of Q-tilde) and the reports every order.

    ``project(projector, q)`` is the joined coefficients of the named
    projection of u onto every level.  The joined coefficients of the
    order-q boundary projections, ``project("q", q)``, and the rows of their
    Ritz corrections, ``correction(q)``, zero at q = 0, are each computed on
    first use and kept, read-only, as long as this object; the Ritz
    projection is their sum, so Q, the Ritz projection and the correction of
    one ``Levels`` share one Q.
    """

    u: SmoothFunction
    spaces: Sequence[SplineSpace]
    orders: Sequence[int] = ()
    _boundaries: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _corrections: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.spaces:
            raise ValueError("requires at least one space for Levels: got none")

    @cached_property
    def sample(self) -> GridTable:
        ns = [default_order(space.degree, space.breakpoints) for space in self.spaces]
        return grid_table(self.spaces, ns, sorted({0, *self.orders}))

    @cached_property
    def _u_table(self) -> np.ndarray:
        return self.u.eval(self.sample.points, self.sample.orders)

    def u_values(self, orders: Sequence[int]) -> np.ndarray:
        """u^(l) at the points of ``sample``, one row per l in ``orders``."""
        return self._u_table[self.sample._rows(orders)]

    def project(self, projector: str, q: int) -> np.ndarray:
        """Joined coefficients of the projection of order
        ``projection_order(projector, q)`` that ``projector`` names, onto
        every level."""
        q = projection_order(projector, q)
        if projector == "qtilde" and q:
            return _ritz_types(self, q, 1)
        coeffs = self._boundary(q)
        if projector == "ritz" and q:
            coeffs = coeffs + _poly_coefficients(self.correction(q), self.spaces)
        return coeffs

    def _boundary(self, q: int) -> np.ndarray:
        if q not in self._boundaries:
            self._boundaries[q] = _frozen(_ritz_types(self, q, 0))
        return self._boundaries[q]

    def correction(self, q: int) -> np.ndarray:
        """The fit of u - Q u onto degree q - 1, one row per level; one zero
        coefficient per level at q = 0."""
        if q not in self._corrections:
            if q:
                rows = _residual_fits(q - 1, self, self._boundary(q))
            else:
                rows = np.zeros((len(self.spaces), 1))
            self._corrections[q] = _frozen(rows)
        return self._corrections[q]


def gauss_orders(space: SplineSpace, q: int) -> dict[str, int]:
    """Gauss points per element of the grids of the order-q projection onto
    ``space``: the load and exact Gram grids of its L2 step, in the q-times
    derived space, and the error-norm grid of :attr:`Levels.sample`, as
    :func:`_ritz_types` and :attr:`Levels.sample` each choose theirs."""
    p, xi = space.degree, space.breakpoints
    return {"load_vector": default_order(p - q, xi), "gram_matrix": default_order(p - q),
            "error_norms": default_order(p, xi)}


def l2_project(space: SplineSpace, u: SmoothFunction) -> Spline:
    """Best L2 approximation of ``u`` in the space (banded normal equations):
    the order-0 boundary projection."""
    return q_project(space, 0, u)


def poly_l2_project(deg: int, f, xi: Breakpoints) -> np.ndarray:
    """L2 projection of the vectorized callable ``f`` onto polynomials of
    degree <= deg on (xi.a, xi.b): the coefficients of (x-a)^i, i = 0..deg.

    Solves M c = r with M_ji = ((x-a)^i, g_j) and r_j = (f, g_j) against the
    shifted Legendre polynomials g_j, using the ``default_order(deg, xi)``-point
    Gauss rule on each element of xi; M is exact, as that order exceeds deg.
    """
    xs, ws = mesh_points(xi, default_order(deg, xi))
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


def _residual_fits(deg: int, levels: Levels, coeffs: np.ndarray) -> np.ndarray:
    """Polynomial L2 projection of u - s onto degree ``deg`` on the error-norm
    grid of each level, row i for levels.spaces[i], s the splines with
    joined coefficients ``coeffs``, from the levels' sample."""
    sample = levels.sample
    resid = levels.u_values((0,))[0] - sample.spline(coeffs, (0,))[0]
    meshes = [space.breakpoints for space in levels.spaces]
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


def _integrate(chain: Sequence[Sequence[SplineSpace]], lo: int, coeffs, values) -> np.ndarray:
    """Integrate the splines with joined coefficients ``coeffs`` in the
    spaces chain[lo] from the left len(values) times, adding values[i], one
    value per space, after the step that reaches order i; the clamped basis
    sums to one.  chain[j] holds the derived spaces of chain[j + 1]."""
    for step, v in enumerate(reversed(values)):
        spaces = chain[lo + step]
        coeffs = _antiderivatives(spaces, coeffs)
        coeffs = coeffs + v.repeat([space.dim + 1 for space in spaces])
    return coeffs


def _ritz_types(levels: Levels, q: int, m: int) -> np.ndarray:
    """Joined coefficients of the order-q Ritz-type projection onto each
    level: s^(q) is the L2 projection w of u^(q) onto the q-times derived
    space, and s^(i)(a) = u^(i)(a) for m <= i < q.

    The lower part sum_{i<m} c_i (x-a)^i is fixed by the moments
    (u - s, g_j) = 0, j < m, against the shifted Legendre polynomials: it is
    the polynomial L2 projection of u - t onto degree m - 1, where t is s
    without that part.  With m = q this is the Ritz saddle-point system in
    derived coordinates: the polynomials span the kernel of the order-q
    stiffness and, the moment matrix being nonsingular, the multipliers
    vanish.  For q >= 1 the L2 step tabulates its load grid, samples u^(q)
    there with one ``u.eval`` call, and tabulates its exact Gram grid, one
    sweep each; for q = 0 its load grid is the error grid, so it reads the
    load from ``levels.u_values`` and tabulates only the Gram grid.  The
    lower part reads the sample too.  The L2 step is one assembly for all
    spaces and one banded solve per space (:func:`quadrature.solve_blocks`),
    and every step is one array program over them, each space's
    coefficients those of a call for it alone, bit for bit; u^(i)(a) is
    evaluated once per distinct left end a.
    """
    spaces, u = levels.spaces, levels.u
    for space in spaces:
        _check_order(space, q, u)
    chain = [list(spaces)]  # chain[i]: the (q - i)-times derived spaces
    while len(chain) <= q:
        chain.insert(0, [space.derived() for space in chain[0]])
    p = spaces[0].degree
    if q:
        load_ns = [default_order(p - q, space.breakpoints) for space in spaces]
        load = grid_table(chain[0], load_ns, (0,))
        fx = u.eval(load.points, q)
    else:  # the load grid is the error grid
        load, fx = levels.sample, levels.u_values((0,))[0]
    gram_ns = [default_order(p - q)] * len(spaces)  # exact: the same on every mesh
    gram = grid_table(chain[0], gram_ns, (0,))
    rhs = load_values(load, fx, 0)
    s = solve_blocks(gram_bands(gram, 0), rhs, [space.dim for space in chain[0]])
    lefts = [space.breakpoints.a for space in spaces]
    at = {a: u.eval(a, range(m, q)) for a in dict.fromkeys(lefts)}
    s = _integrate(chain, 0, s, np.array([at[a] for a in lefts]).T)
    if m:
        t = _integrate(chain, q - m, s, np.zeros((m, len(spaces))))
        c = _residual_fits(m - 1, levels, t)  # n >= p + 1 >= m points: M exact
        s = _integrate(chain, q - m, s, [factorial(i) * ci for i, ci in enumerate(c.T)])
    return s


def q_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Boundary-interpolating Ritz-type projection of order q.

    Closed form of the one-step recursion Q_q u = u(a) + J Q_{q-1} u':
    L2-project the q-th derivative onto the q-times derived space and
    integrate from the left q times, adding u^(i)(a) at each order i.
    """
    return Spline(space, Levels(u, [space]).project("q", q))


def qtilde_project(space: SplineSpace, q: int, u: SmoothFunction) -> Spline:
    """Mean-preserving variant: the constant term is fixed by (s, 1) = (u, 1)."""
    return Spline(space, Levels(u, [space]).project("qtilde", q))


def ritz_correction(space: SplineSpace, q: int, u: SmoothFunction) -> np.ndarray:
    """Coefficients in (x-a)^i of the degree-(q-1) polynomial equal to the
    Ritz minus the boundary projection.

    It is the polynomial L2 projection of the boundary-projection error and
    vanishes identically when the space contains all polynomials of degree
    3q - 1.
    """
    return Levels(u, [space]).correction(q)[0]


def ritz_project(
    space: SplineSpace, q: int, u: SmoothFunction, method: str = "correction"
) -> Spline:
    """Classical Ritz projection of order q.

    ``method='correction'`` adds the polynomial correction to the
    boundary-interpolating projection, the route :meth:`Levels.project`
    takes; ``method='saddle'`` solves the constrained Galerkin system in
    derived coordinates and serves as an independent check of it.
    """
    levels = Levels(u, [space])
    if method == "correction":
        return Spline(space, levels.project("ritz", q))
    if method == "saddle":
        return Spline(space, _ritz_types(levels, q, q))
    raise ValueError(f"unknown method '{method}' (expected 'correction' or 'saddle')")
