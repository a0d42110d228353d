"""Breakpoint meshes, B-spline spaces, and exact calculus between them.

A spline space of degree ``p`` and smoothness ``k`` over a breakpoint
sequence stores those three; its clamped (open) knot vector has end knots with
multiplicity ``p + 1`` and every interior breakpoint with multiplicity
``p - k``.  Differentiation maps the space with parameters ``(p, k)`` onto
the one with ``(p - 1, k - 1)`` over the same breakpoints, and integration
from the left endpoint inverts it; both act exactly on B-spline
coefficients, so the calculus between neighbouring spaces is free of
quadrature error.  :func:`eval_spline_many` evaluates a spline and its
derivatives at any points of its interval: right-continuous at interior
breakpoints and left-continuous at ``b``, with no one-sided option.

Every basis value comes from one Cox-de Boor sweep, :func:`_cox_de_boor`,
over points that each carry the knots around their span.  Its point front
end :func:`_basis_table` searches the span of each point of one space;
``quadrature.grid_table`` takes the span of each element of a Gauss grid
over several spaces from the element's index instead, as all the Gauss
points of an element share it.

A polynomial is a plain coefficient array ``c`` in the shifted monomials,
p(x) = sum_i c_i (x-a)^i with ``a`` the left end of the breakpoints, and is
evaluated as ``numpy.polynomial.polynomial.polyval(x - a, c)``.
:func:`poly_to_spline` gives its B-spline coefficients; back from a spline's
first element, c_i = s^(i)(a)/i! from ``eval_spline_many(s, [a], range(p + 1))``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as npp

# Gram/stiffness conditioning in double precision degrades past this degree.
MAX_DEGREE = 20


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Breakpoints:
    """Strictly increasing abscissae ``a = x_0 < x_1 < ... < x_{N+1} = b``."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        bad = pts[~np.isfinite(pts)]
        if bad.size:
            raise ValueError(f"breakpoints must be finite: got {bad[0]}")
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("breakpoints require at least 2 points")
        widths = np.diff(pts)
        if not np.all(widths > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if widths.min() < np.finfo(float).tiny:  # the basis recurrence divides by widths
            raise ValueError("requires elements wide enough in double precision: width "
                             f"{widths.min():.3g} is below the smallest normal double")
        object.__setattr__(self, "points", _frozen(pts))

    @classmethod
    def uniform(
        cls,
        elements: int,
        a: float = 0.0,
        b: float = 1.0,
        grading: float = 1.0,
    ) -> "Breakpoints":
        """Mesh with `elements` cells on [a, b]; `grading` != 1 packs cells near `a`."""
        if elements < 1:
            raise ValueError("requires at least 1 element")
        if not np.isfinite([a, b]).all():
            raise ValueError(f"breakpoints must be finite: got a={a}, b={b}")
        if b <= a:
            raise ValueError("requires b > a")
        if not 0.0 < grading < np.inf:
            raise ValueError(f"requires a finite grading > 0: got {grading}")
        s = np.linspace(0.0, 1.0, elements + 1)
        if grading != 1.0:
            s = s**grading
        return cls(a + (b - a) * s)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def num_interior(self) -> int:
        return self.points.size - 2

    @cached_property
    def h(self) -> float:
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True)
class SplineSpace:
    """Piecewise polynomials of degree ``p`` in C^k across the breakpoints.

    Use :func:`make_space` to construct: it checks (p, k).  The knot vector
    and the dimension follow from the three fields.
    """

    degree: int
    smoothness: int
    breakpoints: Breakpoints

    @cached_property
    def knots(self) -> np.ndarray:
        """Clamped, read-only: end points p+1 times, interior breakpoints p-k times."""
        pts = self.breakpoints.points
        mult = np.full(pts.size, self.degree - self.smoothness, dtype=int)
        mult[0] = mult[-1] = self.degree + 1
        return _frozen(np.repeat(pts, mult))

    @cached_property
    def dim(self) -> int:
        """(p+1) + N(p-k) for N interior breakpoints."""
        return (self.degree + 1) + self.breakpoints.num_interior * (self.degree - self.smoothness)

    @property
    def interval(self) -> tuple[float, float]:
        return self.breakpoints.a, self.breakpoints.b

    def derived(self) -> "SplineSpace":
        """Image space of differentiation: degree and smoothness drop by one."""
        if self.degree < 1 or self.smoothness < 0:
            raise ValueError(
                "derivative leaves the managed space chain: requires p >= 1 and k >= 0"
            )
        return make_space(self.degree - 1, self.smoothness - 1, self.breakpoints)

    def contains_space(self, other: "SplineSpace") -> bool:
        """Whether every element of `other` lies in this space (same breakpoints).

        With no interior breakpoints both spaces are plain polynomial spaces
        and the smoothness labels carry no constraint.
        """
        return (
            np.array_equal(self.breakpoints.points, other.breakpoints.points)
            and self.degree >= other.degree
            and (self.breakpoints.num_interior == 0 or self.smoothness <= other.smoothness)
        )


def make_space(p: int, k: int, xi: Breakpoints) -> SplineSpace:
    """The spline space of degree `p` and smoothness `k` over `xi`, once
    (p, k) is checked."""
    if p < 0:
        raise ValueError("requires degree p >= 0")
    if p > MAX_DEGREE:
        raise ValueError(f"requires degree p <= {MAX_DEGREE}")
    if not -1 <= k <= p - 1:
        raise ValueError(f"requires -1 <= k <= p-1: got k={k}, p={p}")
    return SplineSpace(p, k, xi)


@dataclass(frozen=True, eq=False)
class Spline:
    """Element of a spline space, stored as B-spline coefficients."""

    space: SplineSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.space.dim,):
            raise ValueError(
                f"coefficient vector has length {c.size}, space dimension is {self.space.dim}"
            )
        object.__setattr__(self, "coeffs", _frozen(c))

    def __sub__(self, other: "Spline") -> "Spline":
        if not np.array_equal(self.space.knots, other.space.knots) or (
            self.space.degree != other.space.degree
        ):
            raise ValueError("splines live in different spaces")
        return Spline(self.space, self.coeffs - other.coeffs)


# ---------------------------------------------------------------------------
# Basis evaluation (Cox-de Boor recurrence with derivatives)
# ---------------------------------------------------------------------------


def _basis_table(space: SplineSpace, x, orders: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero basis derivative values at the points ``x`` of the space's
    interval, for several derivative orders at once.

    Returns ``(first, vals)``: ``first[m]`` is the index of the first of the
    p+1 basis functions that may be nonzero at point m, and ``vals[i, j, m]``
    the ``orders[i]``-th derivative of basis function ``first[m] + j`` there.
    The span of a point is the nonempty knot interval [t_i, t_{i+1}) holding it,
    clamped to the first/last nonempty span at the domain ends, so the values
    are right-continuous inside and left-continuous at ``b``.

    This is the point front end of :func:`_cox_de_boor`: it searches each
    point's span and gathers the 2p knots around it, then runs one sweep for
    every point and every order.  ``quadrature.grid_table`` feeds the same
    sweep from the elements of one Gauss grid instead, whose points share
    one span.
    """
    p, (a, b), t = space.degree, space.interval, space.knots
    x = np.asarray(x, dtype=float).ravel()
    outside = (x < a) | (x > b)
    if np.any(outside):
        raise ValueError(f"x={x[np.argmax(outside)]} outside [{a}, {b}]")
    span = np.searchsorted(t, x, side="right") - 1
    np.maximum(span, p, out=span)
    np.minimum(span, t.size - p - 2, out=span)
    window = t[np.arange(1 - p, p + 1)[:, None] + span]  # t[span+1-p] .. t[span+p]
    return span - p, _cox_de_boor(p, x, window, orders)


def _cox_de_boor(p: int, x: np.ndarray, window: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """The values ``vals[i, j, m]`` of :func:`_basis_table` at the points
    ``x``, each with the 2p knots around its span as a column of ``window``:
    ``window[:, m]`` is t[span+1-p] .. t[span+p] for point m.

    One Cox-de Boor sweep serves every point and every order d.  The sweep
    leaves a copy of its degree-(p - d) table, on which each further degree
    step applies the derivative recurrence
    D B_{i,j} = j (B_{i,j-1} / (t_{i+j} - t_i) - B_{i+1,j-1} / (t_{i+j+1} - t_{i+1})),
    whose denominators are those of the Cox-de Boor step and stay positive
    on a nonempty span.  Each order's values are those of a sweep for that
    order alone, bit for bit.  Loops run over the degree only.

    The tables are degree-major: the window is (2p, npts) and each order's
    table (p+1, npts), so every step of the recurrence is a ufunc over whole
    contiguous rows of npts points.  Every intermediate goes through
    ``out=`` into two (p, npts) work buffers, reused by every step, with the
    operands and the order of operations of the plain expressions, so no
    value changes in its bits.
    """
    orders = [int(d) for d in orders]
    if min(orders, default=0) < 0:
        raise ValueError(f"requires deriv >= 0: got {min(orders)}")
    vals = np.zeros((len(orders), p + 1, x.size))
    slot: dict[int, int] = {}  # first index of each order; higher derivatives vanish
    for i, d in enumerate(orders):
        if d <= p:
            slot.setdefault(d, i)
    if not slot:
        return vals
    work, temp = np.empty((2, p, x.size))
    low = min(slot)
    table = vals[slot[low]]  # the sweep ends in the lowest order's slot
    table[0] = 1.0
    for j in range(p - low + 1):
        if j:
            hi, lo, w, t = window[p : p + j], window[p - j : p], work[:j], temp[:j]
            np.divide(table[:j], np.subtract(hi, lo, out=w), out=t)
            np.multiply(np.subtract(hi, x, out=w), t, out=table[:j])
            table[1 : j + 1] += np.multiply(np.subtract(x, lo, out=w), t, out=w)
        if p - j in slot and p - j != low:
            vals[slot[p - j]] = table
    for d, i in slot.items():
        table = vals[i]
        for j in range(p - d + 1, p + 1):
            hi, lo, w, t = window[p : p + j], window[p - j : p], work[:j], temp[:j]
            np.divide(np.multiply(table[:j], j, out=t), np.subtract(hi, lo, out=w), out=t)
            np.negative(t, out=table[:j])
            table[1 : j + 1] += t
    for i, d in enumerate(orders):
        if d in slot and i != slot[d]:
            vals[i] = vals[slot[d]]
    return vals


def eval_spline_many(
    s: Spline, xs: np.ndarray, deriv: int | Sequence[int] = 0
) -> np.ndarray:
    """Values of the deriv-th derivative of ``s`` at any points ``xs`` of its
    interval (broken for deriv > k): right-continuous at interior breakpoints
    and left-continuous at ``b``.

    ``deriv`` may also be a sequence of orders: the result then stacks one
    array per order along a new first axis, all from one basis sweep.
    """
    xs = np.asarray(xs, dtype=float)
    orders = np.atleast_1d(deriv)
    out = _contract(s.coeffs, *_basis_table(s.space, xs, orders))
    return out.reshape(xs.shape if np.ndim(deriv) == 0 else (orders.size, *xs.shape))


def _contract(coeffs: np.ndarray, first: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Values of a spline from a basis table: ``out[i, m]`` is
    sum_j c_{first[m] + j} vals[i, j, m], summed over j by ``np.sum``.

    The p+1 terms are added in order, so a value at a point does not depend
    on the other points of the table.  A table of one point is summed with
    its column doubled: its summed axis would be contiguous, and numpy adds
    a contiguous axis of eight terms or more (p >= 7) pairwise.

    For a table of several spaces, ``coeffs`` joins one spline of each, their
    bases numbered in turn, and ``first`` is numbered likewise; every value
    is a sum over its own point's column, so each spline's values are those
    of a table of its space alone, bit for bit."""
    if vals.shape[2] == 1:
        return _contract(coeffs, np.repeat(first, 2), np.repeat(vals, 2, axis=2))[:, :1]
    return np.sum(coeffs[np.arange(vals.shape[1])[:, None] + first] * vals, axis=1)


# ---------------------------------------------------------------------------
# Exact calculus: differentiation and integration between neighbour spaces
# ---------------------------------------------------------------------------


def derive(s: Spline) -> Spline:
    """Derivative of ``s`` as an element of the (p-1, k-1) space.

    Uses the exact coefficient formula c'_i = p (c_{i+1} - c_i) / (t_{i+p+1}
    - t_{i+1}); the denominators are positive whenever k >= 0.
    """
    target = s.space.derived()
    p = s.space.degree
    t = s.space.knots
    c = s.coeffs
    gaps = t[p + 1 : p + 1 + target.dim] - t[1 : 1 + target.dim]
    out = p * (c[1:] - c[:-1]) / gaps
    return Spline(target, out)


def integrate_from_left(s: Spline) -> Spline:
    """Antiderivative of ``s`` vanishing at ``a``, in the (p+1, k+1) space."""
    p, k, xi = s.space.degree, s.space.smoothness, s.space.breakpoints
    return Spline(make_space(p + 1, k + 1, xi), _antiderivatives([s.space], s.coeffs))


def _antiderivatives(spaces: Sequence[SplineSpace], coeffs: np.ndarray) -> np.ndarray:
    """Joined coefficients of the antiderivatives vanishing at ``a`` of the
    splines with joined coefficients ``coeffs`` in spaces of one degree p:
    c^+_{i+1} = sum_{j<=i} c_j (t_{j+p+1} - t_j) / (p + 1), with c^+_0 = 0.

    The running sums are one row-wise cumsum on a (spaces, max dim) array
    padded with zeros after each row, so every sum runs over its own space's
    terms alone and is that of a call for that space, bit for bit."""
    p = spaces[0].degree
    gaps = np.concatenate([space.knots[p + 1 :] - space.knots[: space.dim] for space in spaces])
    dims = np.array([[space.dim] for space in spaces])
    cols = np.arange(dims.max() + 1)
    rows = np.zeros((dims.size, cols.size))
    rows[:, 1:][cols[:-1] < dims] = coeffs * gaps / (p + 1)
    rows[:, 1:] = np.cumsum(rows[:, 1:], axis=1)
    return rows[cols <= dims]


# ---------------------------------------------------------------------------
# Exact change of representation (dual functionals)
# ---------------------------------------------------------------------------


def _dual_coefficients(spaces: Sequence[SplineSpace], derivs_at, degree: int) -> np.ndarray:
    """Joined B-spline coefficients of a function known to lie in each of
    several spaces of one degree p (one function per space, their bases
    numbered in turn as in one joined coefficient vector).

    ``derivs_at(taus, orders)`` must return, for each m in ``orders``, the
    m-th derivative at every point of ``taus``, one point per basis function
    in the joined numbering, each of its own space's function; derivatives
    past the functions' ``degree`` vanish and are not asked for.  For each
    basis index the dual functional is evaluated at the midpoint of the
    widest knot span inside the basis support, where the integrand is a
    single polynomial piece:

        c_i = sum_m e_m(t_{i+1} - tau, ..., t_{i+p} - tau) f^(m)(tau) (p-m)!/p!

    The elementary symmetric values e_m are built one knot at a time, and
    only for the orders asked for: e_m depends on e_0 .. e_m alone.  Every
    step acts per basis function, so each space gets the coefficients of a
    call for it alone, bit for bit.
    """
    p = spaces[0].degree
    top = min(p, degree)
    t = np.concatenate([space.knots for space in spaces])
    # the first knot of each basis function: every space has dim + p + 1 knots
    dims = [space.dim for space in spaces]
    k = np.arange(sum(dims)) + np.arange(len(dims)).repeat(dims) * (p + 1)
    rows = k[:, None] + np.arange(p + 1)
    j = rows[:, 0] + np.argmax(t[rows + 1] - t[rows], axis=1)
    taus = 0.5 * (t[j] + t[j + 1])
    e = np.zeros((k.size, top + 1))
    e[:, 0] = 1.0
    for v in (t[rows[:, 1:]] - taus[:, None]).T:
        e[:, 1:] = e[:, 1:] + v[:, None] * e[:, :-1]
    pfac = factorial(p)
    coeffs = np.zeros(k.size)
    orders = range(top + 1)
    for m, f in zip(orders, derivs_at(taus, orders)):
        coeffs += e[:, m] * f * (factorial(p - m) / pfac)
    return coeffs


def poly_to_spline(coeffs, space: SplineSpace) -> Spline:
    """Exact B-spline coefficients of the polynomial sum_i coeffs[i] (x-a)^i,
    a the left end of ``space``, inside ``space``."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if not c.size:
        raise ValueError("requires at least one polynomial coefficient: got none")
    return Spline(space, _poly_coefficients(c[None], [space]))


def _poly_coefficients(cs: np.ndarray, spaces: Sequence[SplineSpace]) -> np.ndarray:
    """Joined B-spline coefficients of the polynomial sum_i cs[j, i] (x-a_j)^i
    in each space j of one degree, a_j its left end: one dual-functional
    pass, Horner's rule run with each basis function's own row of ``cs``."""
    nz = np.nonzero(np.any(cs != 0.0, axis=0))[0]
    if nz.size and nz[-1] > spaces[0].degree:
        raise ValueError(
            f"polynomial degree {nz[-1]} exceeds space degree {spaces[0].degree}"
        )
    level = np.arange(len(spaces)).repeat([space.dim for space in spaces])
    a = np.array([space.breakpoints.a for space in spaces])[level]
    rows = cs.T[:, level]
    derivs_at = lambda taus, orders: [
        npp.polyval(taus - a, npp.polyder(rows, m), tensor=False) for m in orders
    ]
    return _dual_coefficients(spaces, derivs_at, cs.shape[1] - 1)


def embed(s: Spline, target: SplineSpace) -> Spline:
    """Re-express ``s`` in a superspace (same breakpoints, p up, k down)."""
    if not target.contains_space(s.space):
        raise ValueError(
            "target is not a superspace: requires same breakpoints, "
            f"target p >= {s.space.degree} and target k <= {s.space.smoothness}"
        )
    derivs_at = lambda taus, orders: eval_spline_many(s, taus, orders)
    return Spline(target, _dual_coefficients([target], derivs_at, s.space.degree))

