"""Gauss-Legendre rules and inner products over breakpoint meshes.

All L2 inner products in the package are computed element by element, at
orders chosen by one policy, :func:`default_order`: integrals of splines
and polynomials alone get the exact order p + 1; integrals with a smooth
factor get SMOOTH_MARGIN more points, and at least SMOOTH_WIDTH points
across the interval.  That margin is measured: every projector's
coefficients then agree with the MAX_ORDER rule's to 1e-10 plus the
roundoff floor of its Gram matrix.  ``RITZ_SPLINE_QUAD_ORDER`` overrides
every default order, but never below the exact one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solveh_banded

from .mesh import Breakpoints, SplineSpace, _basis_table, _frozen

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
    """Gauss points and weights per element, shaped (elements, n)."""
    rule = gauss_rule(n)
    pts = xi.points
    a = pts[:-1][:, None]
    b = pts[1:][:, None]
    half = 0.5 * (b - a)
    return half * rule.nodes + 0.5 * (a + b), half * rule.weights


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
        return solveh_banded(self.bands, rhs, lower=True)


def _element_basis(
    space: SplineSpace, xs: np.ndarray, deriv: int
) -> tuple[np.ndarray, np.ndarray]:
    """First basis index per element and (elements, n, p+1) derivative values.

    ``xs`` holds the Gauss points of each element, one row per element as
    from :func:`mesh_points`, so every row must share one span.
    """
    first, vals = _basis_table(space, xs, deriv)
    first = first.reshape(xs.shape)
    if np.any(first != first[:, :1]):
        raise ValueError(
            "requires elements wide enough in double precision that no Gauss "
            "point rounds onto a breakpoint"
        )
    return first[:, 0], vals.reshape(*xs.shape, -1)


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
    xs, ws = mesh_points(space.breakpoints, n)
    first, vals = _element_basis(space, xs, deriv)
    local = np.einsum("eni,en,enj->eij", vals, ws, vals)
    row, col = np.tril_indices(p + 1)
    bands = np.zeros((p + 1, space.dim))
    np.add.at(bands, (row - col, first[:, None] + col), local[:, row, col])
    return BandedSymmetric(_frozen(bands), space.dim, p)


def load_vector(
    space: SplineSpace, f: Integrand, n: int, deriv: int = 0
) -> np.ndarray:
    """Vector of inner products (f, d^deriv b_i) over the space's mesh."""
    xs, ws = mesh_points(space.breakpoints, n)
    first, vals = _element_basis(space, xs, deriv)
    fw = (np.asarray(f(xs.ravel())) * ws.ravel()).reshape(xs.shape)
    local = np.einsum("eni,en->ei", vals, fw)
    out = np.zeros(space.dim)
    np.add.at(out, first[:, None] + np.arange(space.degree + 1), local)
    return out
