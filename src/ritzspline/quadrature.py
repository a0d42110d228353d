"""Gauss-Legendre rules and inner products over breakpoint meshes.

All L2 inner products in the package are computed element by element, at
orders chosen by one policy, :func:`default_order`: integrals of splines
and polynomials alone get the exact order p + 1; integrals with a smooth
factor get SMOOTH_MARGIN more points, and at least SMOOTH_WIDTH points
across the interval.  That margin is measured: every projector's
coefficients then agree with the MAX_ORDER rule's to 1e-10 plus the
roundoff floor of its Gram matrix.  ``RITZ_SPLINE_QUAD_ORDER`` overrides
every default order, but never below the exact one.

A :class:`GridTable` holds the basis values of several spaces of one
degree on one Gauss grid of their meshes, their bases numbered in turn as
in one joined coefficient vector, and optionally a function's values there.
:func:`grid_table` builds it as one array program: the points of all the
elements from the :func:`mesh_points` formula, the span and knot window of
each element from its index, and one basis sweep for all points.
:func:`gram_bands` and :func:`load_values` assemble the systems of all the
table's spaces at once, the Gram matrices as one block-diagonal band whose
blocks :func:`solve_blocks` solves one by one; each space's entries and
solution are those of its own system, bit for bit.  :func:`gram_matrix`
and :func:`load_vector` are the one-space case.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .functions import SmoothFunction
from .mesh import Breakpoints, SplineSpace, _contract, _cox_de_boor, _frozen

MAX_ORDER = 64
ENV_ORDER = "RITZ_SPLINE_QUAD_ORDER"
# Extra points for a smooth factor, and the points it gets across the whole
# interval on coarse meshes.  Fixed by the error-versus-order test
# test_default_order_matches_max_order_rule in tests/test_quadrature.py.
SMOOTH_MARGIN = 5
SMOOTH_WIDTH = 64

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class GaussRule:
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> GaussRule:
    """n-point Gauss-Legendre rule (numpy's ``leggauss``), cached per order."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"requires 1 <= n <= {MAX_ORDER}: got {n}")
    nodes, weights = leggauss(n)
    return GaussRule(_frozen(nodes), _frozen(weights))


def resolve_order(requested: int, exact: int = 1) -> int:
    """Clamp a default order to [1, MAX_ORDER], honouring the env override,
    which must not fall below the ``exact`` order of the integral."""
    env = os.environ.get(ENV_ORDER)
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{ENV_ORDER} must be an integer: got {env!r}") from None
        if not exact <= n <= MAX_ORDER:
            raise ValueError(f"{ENV_ORDER} must lie in [{exact}, {MAX_ORDER}]: got {env}")
        return n
    return min(max(requested, 1), MAX_ORDER)


def default_order(p: int, xi: Breakpoints | None = None) -> int:
    """Gauss order for an integral against degree-p splines or polynomials.

    Without ``xi`` the integrand is piecewise polynomial of degree at most
    2p + 1 and p + 1 points are exact.  With the mesh ``xi`` it has a smooth
    factor: max(p + 1 + SMOOTH_MARGIN, ceil(SMOOTH_WIDTH * h_max / (b - a))).
    """
    if xi is None:
        return resolve_order(p + 1, p + 1)
    width = math.ceil(SMOOTH_WIDTH * (xi.h / (xi.b - xi.a)))
    return resolve_order(max(p + 1 + SMOOTH_MARGIN, width), p + 1)


def mesh_points(xi: Breakpoints, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights per element, shaped (elements, n), each point
    strictly inside its element, so that they share one knot span."""
    return _element_points(xi.points[:-1], xi.points[1:], n)


def _element_points(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mesh_points` of the elements [a[e], b[e]], whichever meshes
    they belong to: every point is formed from its own element's ends."""
    rule = gauss_rule(n)
    a, b = a[:, None], b[:, None]
    half = 0.5 * (b - a)
    xs = half * rule.nodes + (0.5 * a + 0.5 * b)  # a + b would overflow past ~9e307
    narrow = (xs[:, :1] <= a) | (xs[:, -1:] >= b)  # the nodes ascend
    if narrow.any():
        e = np.argmax(narrow)
        lo, hi = a[e, 0].item(), b[e, 0].item()
        raise ValueError("requires elements wide enough in double precision that no Gauss point "
                         f"rounds onto a breakpoint: element [{lo}, {hi}] has width {hi - lo:.3g}")
    return xs, half * rule.weights


@dataclass(frozen=True, eq=False)
class BandedSymmetric:
    """Symmetric banded matrix in lower-diagonal storage.

    ``bands[d, j]`` holds entry (j + d, j); row 0 is the main diagonal.
    The matrix has ``bands.shape[1]`` rows and ``bands.shape[0] - 1``
    subdiagonals.
    """

    bands: np.ndarray

    def to_dense(self) -> np.ndarray:
        dim = self.bands.shape[1]
        a = np.zeros((dim, dim))
        for d, band in enumerate(self.bands):
            idx = np.arange(dim - d)
            a[idx + d, idx] = band[: dim - d]
            a[idx, idx + d] = band[: dim - d]
        return a

    def principal(self, lo: int, hi: int) -> BandedSymmetric:
        """Principal submatrix of rows and columns lo..hi-1, still banded.

        Exact by slicing: entries (j + d, j) with j + d >= hi - lo, which
        now couple to dropped indices, are never read.  At most hi - lo
        bands are kept, the most a matrix of that size has: scipy's banded
        solver rejects or rounds differently on more.
        """
        return BandedSymmetric(self.bands[: hi - lo, lo:hi])

    def solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import solveh_banded  # imported on first solve: slow to load

        return solveh_banded(self.bands, rhs, lower=True)


def solve_blocks(matrix: BandedSymmetric, rhs: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """``matrix.solve_spd(rhs)`` for a block-diagonal ``matrix`` whose
    diagonal blocks have sizes ``dims``, their couplings zero: each block
    solved by itself, so its solution is that of its own system, bit for
    bit, whatever order the BLAS sums in."""
    ends = list(accumulate(dims, initial=0))
    return np.concatenate([
        matrix.principal(lo, hi).solve_spd(rhs[lo:hi]) for lo, hi in zip(ends, ends[1:])
    ])


@dataclass(frozen=True, eq=False)
class GridTable:
    """The bases of several spaces of one degree on one Gauss grid of their
    meshes, the ns[i]-point grid for spaces[i].

    ``points`` and ``weights`` join the flattened :func:`mesh_points` of
    every mesh, those of spaces[i] being ``points[ends[i]:ends[i + 1]]``,
    and ``runs`` pairs each maximal run of consecutive spaces on one grid
    order n with the slice of their points.  ``first`` and ``vals`` are the
    basis table there, with ``vals[i]`` for order ``orders[i]`` bit for bit
    as ``mesh._basis_table`` returns it at each space's points, but
    ``first`` numbers the bases of the spaces in turn, as one joined
    coefficient vector holds a spline of each.  The n points of an element
    share its first index.  ``u``, when the table is a sample of u, holds
    u^(orders[i]) at the points.
    """

    spaces: tuple[SplineSpace, ...]
    ns: tuple[int, ...]
    ends: tuple[int, ...]
    runs: tuple[tuple[int, slice], ...]
    points: np.ndarray
    weights: np.ndarray
    orders: tuple[int, ...]
    first: np.ndarray
    vals: np.ndarray
    u: np.ndarray | None = None

    def _rows(self, orders: Sequence[int]) -> list[int]:
        return [self.orders.index(d) for d in orders]

    def u_values(self, orders: Sequence[int]) -> np.ndarray:
        """u^(l) at the points, one row per l in ``orders``."""
        return self.u[self._rows(orders)]

    def spline(self, coeffs: np.ndarray, orders: Sequence[int]) -> np.ndarray:
        """s^(l) at the points, one row per l in ``orders``, for the splines
        of the table's spaces with joined coefficients ``coeffs``: what
        ``eval_spline_many`` gives for each, bit for bit."""
        return _contract(coeffs, self.first, self.vals[self._rows(orders)])

    def norms(self, d: np.ndarray) -> list[list[float]]:
        """Per space, the broken L2 norm over its own points of each row of
        ``d``, values at the points: each a pairwise sum over that space's
        contiguous points alone, as for a table of it alone."""
        sq = d * d * self.weights
        return [
            [float(math.sqrt(np.sum(row[lo:hi]))) for row in sq]
            for lo, hi in zip(self.ends, self.ends[1:])
        ]

    def element_basis(
        self, deriv: int, n: int, points: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """First basis index per element and (elements, n, p+1) values of
        the deriv-th basis derivatives, for the ``points`` of a run of spaces
        on the n-point grid.

        The Gauss points of an element share one span (:func:`mesh_points`).
        The degree-major table is copied point-major, as the einsum
        contractions of the assembly take it: contracted in place, the load
        vector's sums would run in another order and change in their last
        bits.
        """
        first = self.first[points][::n]
        vals = np.ascontiguousarray(self.vals[self.orders.index(deriv)][:, points].T)
        return first, vals.reshape(-1, n, vals.shape[1])


def grid_table(
    spaces: Sequence[SplineSpace],
    ns: Sequence[int],
    orders: Sequence[int],
    u: SmoothFunction | None = None,
) -> GridTable:
    """The table of the spaces on the ns[i]-point Gauss grid of the mesh of
    spaces[i], at every order in ``orders``: one basis sweep for all of
    them, so the spaces must share one degree.

    The elements of the spaces are joined in turn, and each run of equal n
    gets its points and weights from one :func:`mesh_points` formula,
    narrow elements reported in that order.  The Gauss points of element e
    share its span, whose first basis function is e (p - k), so the first
    index and the 2p-knot window are gathered once per element and repeated
    over its n points, with no span search; the one sweep of
    ``mesh._cox_de_boor`` then gives every point the values of
    ``mesh._basis_table`` there, bit for bit.

    With ``u``, the table also holds u^(l) at its points for every l in
    ``orders``: one ``u.eval`` call on its joined points, made before the
    sweep so that u.eval names a bad order.  Every ufunc of the evaluation
    acts point by point, so each space's values are those of a table of it
    alone, bit for bit.
    """
    spaces, ns, orders = tuple(spaces), tuple(ns), tuple(int(d) for d in orders)
    counts = [space.breakpoints.points.size - 1 for space in spaces]
    ends = tuple(accumulate((c * n for c, n in zip(counts, ns, strict=True)), initial=0))
    # the elements in runs of equal n
    runs = [(n, sum(c for _, c in run)) for n, run in groupby(zip(ns, counts), key=itemgetter(0))]
    bounds = list(accumulate((c for _, c in runs), initial=0))
    a = np.concatenate([space.breakpoints.points[:-1] for space in spaces])
    b = np.concatenate([space.breakpoints.points[1:] for space in spaces])
    grids = [_element_points(a[lo:hi], b[lo:hi], n)
             for (n, _), lo, hi in zip(runs, bounds, bounds[1:])]
    points = np.concatenate([xs.ravel() for xs, _ in grids])
    weights = np.concatenate([ws.ravel() for _, ws in grids])
    stops = list(accumulate((xs.size for xs, _ in grids), initial=0))
    point_runs = tuple((n, slice(lo, hi)) for (n, _), lo, hi in zip(runs, stops, stops[1:]))
    ul = None if u is None else u.eval(points, orders)
    p = spaces[0].degree
    if any(space.degree != p for space in spaces):
        raise ValueError("requires spaces of one degree")
    # element e of a space: first basis function e (p - k), span p + e (p - k),
    # so its knot window t[span+1-p] .. t[span+p] starts at t[e (p - k) + 1]
    steps = [p - space.smoothness for space in spaces]
    starts = accumulate((space.dim for space in spaces), initial=0)
    first = np.concatenate([np.arange(lo, lo + c * m, m)
                            for lo, c, m in zip(starts, counts, steps)])
    # in the joined knots each earlier space has p + 1 more knots than bases,
    # so the window of an element of space i starts at t[first + i (p + 1) + 1]
    knots = np.concatenate([space.knots for space in spaces])
    base = first + np.repeat(1 + (p + 1) * np.arange(len(spaces)), counts)
    window = knots[np.arange(2 * p)[:, None] + base]
    per = np.repeat(ns, counts)  # points per element
    vals = _cox_de_boor(p, points, window.repeat(per, axis=1), orders)
    return GridTable(
        spaces, ns, ends, point_runs, points, weights, orders, first.repeat(per), vals, ul
    )


@lru_cache(maxsize=None)
def _tril_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(size)


def gram_matrix(space: SplineSpace, deriv: int = 0, n: int | None = None) -> BandedSymmetric:
    """Banded Gram matrix of the deriv-th basis derivatives.

    For deriv = 0 the matrix is symmetric positive definite; for deriv = q
    >= 1 it is positive semidefinite with the degree-(q-1) polynomials in
    its kernel.
    """
    p = space.degree
    if deriv > p:
        raise ValueError("requires deriv <= p")
    if n is None:
        n = default_order(p)
    if n < p + 1:
        raise ValueError("requires n >= p + 1 for exact spline products")
    table = grid_table([space], [n], (deriv,))
    return gram_bands(table, deriv)


def gram_bands(table: GridTable, deriv: int) -> BandedSymmetric:
    """The Gram matrix of the deriv-th basis derivatives of all the table's
    spaces, on one grid order, joined block-diagonally: one einsum and one
    bincount for every element, each entry summed in element order as in a
    space's own matrix, and the couplings between spaces zero."""
    (n,) = set(table.ns)
    p, dim = table.spaces[0].degree, sum(space.dim for space in table.spaces)
    first, vals = table.element_basis(deriv, n)
    local = np.einsum("eni,en,enj->eij", vals, table.weights.reshape(-1, n), vals)
    row, col = _tril_indices(p + 1)
    # entry (row, col) of element e lands in bands[row - col, first[e] + col];
    # bincount sums in index order, as np.add.at would
    flat = (row - col) * dim + (first[:, None] + col)
    bands = np.bincount(
        flat.ravel(), local[:, row, col].ravel(), minlength=(p + 1) * dim
    ).reshape(p + 1, dim)
    return BandedSymmetric(_frozen(bands))


def load_vector(space: SplineSpace, f: Integrand, n: int, deriv: int = 0) -> np.ndarray:
    """Vector of inner products (f, d^deriv b_i) over the space's mesh, the
    vectorized callable ``f`` sampled on the n-point grid of every element."""
    table = grid_table([space], [n], (deriv,))
    return load_values(table, np.asarray(f(table.points)), deriv)


def load_values(table: GridTable, fx: np.ndarray, deriv: int) -> np.ndarray:
    """The joined load vectors (f, d^deriv b_i) of all the table's spaces,
    from f's values ``fx`` at the points: one einsum per run of spaces on
    one grid order and one bincount, each entry summed in element order as
    in a space's own vector."""
    fw = fx * table.weights
    p = table.spaces[0].degree
    index, local = [], []
    for n, points in table.runs:
        first, vals = table.element_basis(deriv, n, points)
        local.append(np.einsum("eni,en->ei", vals, fw[points].reshape(-1, n)).ravel())
        index.append((first[:, None] + np.arange(p + 1)).ravel())
    dim = sum(space.dim for space in table.spaces)
    return np.bincount(np.concatenate(index), np.concatenate(local), minlength=dim)
