"""Gauss-Legendre rules and inner products over breakpoint meshes.

All L2 inner products in the package are computed element by element, at
orders chosen by one policy, :func:`default_order`: integrals of splines
and polynomials alone get the exact order p + 1; integrals with a smooth
factor get SMOOTH_MARGIN more points, and at least SMOOTH_WIDTH points
across the interval.  That margin is measured: every projector's
coefficients then agree with the MAX_ORDER rule's to 1e-10 plus the
roundoff floor of its Gram matrix.  ``RITZ_SPLINE_QUAD_ORDER`` overrides
every default order, but never below the exact one.

The Gauss grid of a mesh at one order is computed once and kept, frozen, on
that ``Breakpoints`` instance: it lives as long as the mesh object and is
never shared with an equal mesh built elsewhere.  A :class:`GridTable`
holds the basis values of a space on such a grid; :func:`grid_tables`
builds the tables of several spaces of one degree from one basis sweep,
and :func:`sample_error_grids` adds the values of u on the error-norm
grids, so a study samples each of its levels once.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .functions import SmoothFunction
from .mesh import Breakpoints, Spline, SplineSpace, _basis_table, _contract, _frozen

MAX_ORDER = 64
ENV_ORDER = "RITZ_SPLINE_QUAD_ORDER"
# Extra points for a smooth factor, and the points it gets across the whole
# interval on coarse meshes.  Fixed by the error-versus-order test
# test_default_order_matches_max_order_rule in tests/test_quadrature.py.
SMOOTH_MARGIN = 5
SMOOTH_WIDTH = 64

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GaussRule:
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> GaussRule:
    """n-point Gauss-Legendre rule (numpy's ``leggauss``), cached per order."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"requires 1 <= n <= {MAX_ORDER}: got {n}")
    nodes, weights = leggauss(n)
    return GaussRule(_frozen(nodes), _frozen(weights), n)


def resolve_order(requested: int, exact: int = 1) -> int:
    """Clamp a default order to [1, MAX_ORDER], honouring the env override,
    which must not fall below the ``exact`` order of the integral."""
    env = os.environ.get(ENV_ORDER)
    if env is not None:
        n = int(env)
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
    width = math.ceil(SMOOTH_WIDTH * xi.h / (xi.b - xi.a))
    return resolve_order(max(p + 1 + SMOOTH_MARGIN, width), p + 1)


def mesh_points(xi: Breakpoints, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights per element, shaped (elements, n), read-only.

    Computed on the first call for ``xi`` and ``n`` and kept on ``xi``.
    """
    grid = xi.gauss_grids.get(n)
    if grid is None:
        rule = gauss_rule(n)
        pts = xi.points
        a = pts[:-1][:, None]
        b = pts[1:][:, None]
        half = 0.5 * (b - a)
        grid = _frozen(half * rule.nodes + 0.5 * (a + b)), _frozen(half * rule.weights)
        xi.gauss_grids[n] = grid
    return grid


def inner_product(f: Integrand, g: Integrand, xi: Breakpoints, n: int) -> float:
    """Elementwise n-point Gauss approximation of the L2 inner product (f, g)."""
    xs, ws = mesh_points(xi, n)
    flat = xs.ravel()
    return float(np.sum(np.asarray(f(flat)) * np.asarray(g(flat)) * ws.ravel()))


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix in lower-diagonal storage.

    ``bands[d, j]`` holds entry (j + d, j); row 0 is the main diagonal.
    """

    bands: np.ndarray
    dim: int
    bandwidth: int

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for d in range(self.bandwidth + 1):
            idx = np.arange(self.dim - d)
            a[idx + d, idx] = self.bands[d, : self.dim - d]
            a[idx, idx + d] = self.bands[d, : self.dim - d]
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The product with a vector, or with each column of a (dim, m) block."""
        bands = self.bands if v.ndim == 1 else self.bands[..., None]
        out = bands[0] * v
        for d in range(1, self.bandwidth + 1):
            out[d:] += bands[d, : self.dim - d] * v[: self.dim - d]
            out[: self.dim - d] += bands[d, : self.dim - d] * v[d:]
        return out

    def principal(self, lo: int, hi: int) -> BandedSymmetric:
        """Principal submatrix of rows and columns lo..hi-1, still banded.

        Exact by slicing: entries (j + d, j) with j + d >= hi - lo, which
        now couple to dropped indices, are never read.  The bandwidth is
        clamped to hi - lo - 1, the widest a matrix of that size can have.
        """
        dim = hi - lo
        bandwidth = min(self.bandwidth, dim - 1)
        return BandedSymmetric(self.bands[: bandwidth + 1, lo:hi], dim, bandwidth)

    def norm1(self) -> float:
        """Largest absolute column sum (equal to the row sum by symmetry)."""
        sums = BandedSymmetric(np.abs(self.bands), self.dim, self.bandwidth).matvec(
            np.ones(self.dim)
        )
        return float(np.max(sums))

    def solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import solveh_banded  # imported on first solve: slow to load

        return solveh_banded(self.bands, rhs, lower=True)


@dataclass(frozen=True)
class GridTable:
    """The basis of one space on the n-point Gauss grid of its mesh.

    ``points`` and ``weights`` are :func:`mesh_points` of the mesh, and
    ``first`` and ``vals`` the basis table at the flattened points, with
    ``vals[i]`` for order ``orders[i]`` as ``mesh._basis_table`` returns it.
    ``u``, when the table is a sample of u, holds u^(orders[i]) there.
    """

    space: SplineSpace
    points: np.ndarray
    weights: np.ndarray
    orders: tuple[int, ...]
    first: np.ndarray
    vals: np.ndarray
    u: np.ndarray | None = None

    def of(self, space: SplineSpace, n: int) -> GridTable:
        """This table, once checked to be of ``space`` on the n-point grid:
        another space's table would index the coefficients wrongly."""
        if self.points.shape[1] != n or not (
            space.degree == self.space.degree and np.array_equal(space.knots, self.space.knots)
        ):
            raise ValueError("requires the table of the space on its n-point Gauss grid")
        return self

    def _rows(self, orders: Sequence[int]) -> list[int]:
        return [self.orders.index(d) for d in orders]

    def u_values(self, orders: Sequence[int]) -> np.ndarray:
        """u^(l) at the flattened points, one row per l in ``orders``."""
        return self.u[self._rows(orders)]

    def spline(self, s: Spline, orders: Sequence[int]) -> np.ndarray:
        """s^(l) at the flattened points, one row per l in ``orders``, for s
        in the table's space: what ``eval_spline_many`` gives, bit for bit."""
        return _contract(s, self.first, self.vals[self._rows(orders)])

    def element_basis(self, deriv: int) -> tuple[np.ndarray, np.ndarray]:
        """First basis index per element and (elements, n, p+1) values of
        the deriv-th basis derivatives.

        Every row of Gauss points must share one span.  The degree-major
        table is copied point-major, as the einsum contractions of the
        assembly take it: contracted in place, the load vector's sums would
        run in another order and change in their last bits.
        """
        first = self.first.reshape(self.points.shape)
        if np.any(first != first[:, :1]):
            raise ValueError(
                "requires elements wide enough in double precision that no Gauss "
                "point rounds onto a breakpoint"
            )
        vals = self.vals[self.orders.index(deriv)]
        return first[:, 0], np.ascontiguousarray(vals.T).reshape(*self.points.shape, -1)


def grid_tables(
    spaces: Sequence[SplineSpace], ns: Sequence[int], orders: Sequence[int]
) -> list[GridTable]:
    """The table of each space on the ns[i]-point Gauss grid of its mesh, at
    every order in ``orders``: one basis sweep for all of them, so the
    spaces must share one degree."""
    orders = tuple(int(d) for d in orders)
    grids = [mesh_points(space.breakpoints, n) for space, n in zip(spaces, ns, strict=True)]
    first, vals = _basis_table(spaces, [xs for xs, _ in grids], orders)
    tables, lo = [], 0
    for space, (xs, ws) in zip(spaces, grids):
        hi = lo + xs.size
        tables.append(GridTable(space, xs, ws, orders, first[lo:hi], vals[:, :, lo:hi]))
        lo = hi
    return tables


def eval_on_grids(
    u: SmoothFunction, grids: Sequence[np.ndarray], deriv: int | Sequence[int]
) -> list[np.ndarray]:
    """``u.eval(xs.ravel(), deriv)`` for every xs in ``grids``, from one call
    on all their points.

    Every ufunc of the evaluation acts point by point, so each grid's values
    are those of a call for it alone, bit for bit.
    """
    flat = [xs.ravel() for xs in grids]
    values = u.eval(np.concatenate(flat), deriv)
    ends = np.cumsum([0, *(x.size for x in flat)]).tolist()
    return [values[..., lo:hi] for lo, hi in zip(ends, ends[1:])]


def sample_error_grids(
    u: SmoothFunction, spaces: Sequence[SplineSpace], orders: Sequence[int]
) -> list[GridTable]:
    """Tables of the spaces on their error-norm grids, the
    ``default_order(p, xi)``-point grid of each mesh, with u^(l) there for
    every l in ``orders``: one ``u.eval`` call and one basis sweep for all.
    """
    orders = tuple(int(d) for d in orders)
    ns = [default_order(space.degree, space.breakpoints) for space in spaces]
    grids = [mesh_points(space.breakpoints, n)[0] for space, n in zip(spaces, ns)]
    uls = eval_on_grids(u, grids, orders)  # first: u.eval names a bad order
    return [replace(table, u=ul) for table, ul in zip(grid_tables(spaces, ns, orders), uls)]


def error_grid_sample(
    u: SmoothFunction, space: SplineSpace, orders: Sequence[int], sample: GridTable | None
) -> GridTable:
    """``sample``, checked to be of ``space`` on its error-norm grid, or
    without one a new :func:`sample_error_grids` sample of u there."""
    if sample is None:
        (sample,) = sample_error_grids(u, [space], orders)
        return sample
    return sample.of(space, default_order(space.degree, space.breakpoints))


@lru_cache(maxsize=None)
def _tril_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(size)


def gram_matrix(
    space: SplineSpace, deriv: int = 0, n: int | None = None, table: GridTable | None = None
) -> BandedSymmetric:
    """Banded Gram matrix of the deriv-th basis derivatives.

    For deriv = 0 the matrix is symmetric positive definite; for deriv = q
    >= 1 it is positive semidefinite with the degree-(q-1) polynomials in
    its kernel.  ``table``, when given, is the space's table on the
    n-point grid and holds order ``deriv``.
    """
    p = space.degree
    if deriv > p:
        raise ValueError("requires deriv <= p")
    if n is None:
        n = default_order(p)
    if n < p + 1:
        raise ValueError("requires n >= p + 1 for exact spline products")
    _, ws = mesh_points(space.breakpoints, n)
    if table is None:
        (table,) = grid_tables([space], [n], (deriv,))
    first, vals = table.of(space, n).element_basis(deriv)
    local = np.einsum("eni,en,enj->eij", vals, ws, vals)
    row, col = _tril_indices(p + 1)
    # entry (row, col) of element e lands in bands[row - col, first[e] + col];
    # bincount sums in index order, as np.add.at would
    flat = (row - col) * space.dim + (first[:, None] + col)
    bands = np.bincount(
        flat.ravel(), local[:, row, col].ravel(), minlength=(p + 1) * space.dim
    ).reshape(p + 1, space.dim)
    return BandedSymmetric(_frozen(bands), space.dim, p)


def load_vector(
    space: SplineSpace,
    f: Integrand | np.ndarray,
    n: int,
    deriv: int = 0,
    table: GridTable | None = None,
) -> np.ndarray:
    """Vector of inner products (f, d^deriv b_i) over the space's mesh.

    ``f`` is the integrand or its values at the flattened n-point grid;
    ``table`` as for :func:`gram_matrix`.
    """
    xs, ws = mesh_points(space.breakpoints, n)
    if table is None:
        (table,) = grid_tables([space], [n], (deriv,))
    first, vals = table.of(space, n).element_basis(deriv)
    fx = f if isinstance(f, np.ndarray) else np.asarray(f(xs.ravel()))
    fw = (fx * ws.ravel()).reshape(xs.shape)
    local = np.einsum("eni,en->ei", vals, fw)
    index = first[:, None] + np.arange(space.degree + 1)
    return np.bincount(index.ravel(), local.ravel(), minlength=space.dim)
