"""Independent reference computations for the benchmark's correctness checks.

Everything here is built from ``scipy.interpolate.BSpline`` (basis and
spline evaluation from knots and coefficients), Gauss-Legendre rules from
``numpy.polynomial.legendre.leggauss``, ``scipy.optimize.brentq`` and dense
linear algebra.  It imports nothing from ``ritzspline``, so a fault in the
package cannot hide inside its own oracle.

Run ``python3 perfbench/reference.py`` for the self-test on closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as nppoly
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BSpline
from scipy.linalg import eigh, solve
from scipy.optimize import brentq

# Points per evaluation block: keeps the dense basis blocks near 1 MB, so the
# checks do not set the benchmark's peak memory.
_BLOCK = 512

# Gauss points per element for the reference integrals: exact for spline
# products up to degree 47 and at roundoff for the smooth targets on the
# benchmark meshes.
GAUSS_POINTS = 24


# ---------------------------------------------------------------------------
# Target functions with closed-form derivatives of every order
# ---------------------------------------------------------------------------


def sin4x(x: np.ndarray, d: int) -> np.ndarray:
    """d-th derivative of sin(4x), as Im[(4i)^d exp(4ix)]."""
    return np.imag((4j) ** d * np.exp(4j * np.asarray(x, dtype=float)))


# x^5 / (1 + x^2) = x^3 - x + x / (1 + x^2), and x / (1 + x^2) = Re 1/(x - i).
_CUBIC = np.array([0.0, -1.0, 0.0, 1.0])


def expression(x: np.ndarray, d: int) -> np.ndarray:
    """d-th derivative of exp(x)*sin(3x) + x^5/(1+x^2).

    exp(x) sin(3x) = Im exp((1+3i)x); the rational part splits into a cubic
    plus Re 1/(x - i), whose d-th derivative is (-1)^d d! (x - i)^(-d-1).
    """
    x = np.asarray(x, dtype=float)
    z = 1.0 + 3.0j
    out = np.imag(z**d * np.exp(z * x))
    out = out + nppoly.polyval(x, nppoly.polyder(_CUBIC, d))
    out = out + np.real((-1.0) ** d * math.factorial(d) * (x - 1j) ** (-d - 1))
    return out


EXPRESSION_SOURCE = "exp(x)*sin(3*x)+x^5/(1+x^2)"

TARGETS = {"sin4x": sin4x, EXPRESSION_SOURCE: expression}


def sin4x_seminorm(r: int, a: float = 0.0, b: float = 1.0) -> float:
    """|sin(4x)|_{H^r(a,b)} in closed form.

    The r-th derivative is 4^r sin(4x + r pi/2), and the integral of
    sin^2(4x + phi) is (b - a)/2 - (sin(8b + 2 phi) - sin(8a + 2 phi))/16.
    """
    phi2 = r * math.pi
    integral = 0.5 * (b - a) - (math.sin(8 * b + phi2) - math.sin(8 * a + phi2)) / 16.0
    return 4.0**r * math.sqrt(integral)


def maximal_smoothness_bound(h: float, r: int, l: int) -> float:
    """Coefficient of |u|_{H^r} bounding |d^l (u - Qu)| on C^{p-1} splines.

    On maximally smooth spaces the projection constant is pi^{-r}, so the
    paper's product c_{q-l} c_{r-q} h^{r-l} collapses to (h / pi)^{r-l}.
    """
    return (h / math.pi) ** (r - l)


# ---------------------------------------------------------------------------
# Meshes, quadrature and B-spline bases
# ---------------------------------------------------------------------------


def clamped_knots(breaks: np.ndarray, p: int) -> np.ndarray:
    """Open knot vector of the C^{p-1} spline space over the breakpoints."""
    breaks = np.asarray(breaks, dtype=float)
    return np.concatenate([[breaks[0]] * p, breaks, [breaks[-1]] * p])


def breakpoints_of(knots: np.ndarray) -> np.ndarray:
    return np.unique(np.asarray(knots, dtype=float))


def gauss_points(breaks: np.ndarray, n: int = GAUSS_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Flattened Gauss nodes and weights, n per element."""
    nodes, weights = leggauss(n)
    a = np.asarray(breaks[:-1], dtype=float)[:, None]
    b = np.asarray(breaks[1:], dtype=float)[:, None]
    half = 0.5 * (b - a)
    return (half * nodes + 0.5 * (a + b)).ravel(), (half * weights).ravel()


def spline_values(knots, coeffs, p: int, x: np.ndarray, nu: int = 0) -> np.ndarray:
    """nu-th derivative of the spline with these knots and coefficients."""
    spline = BSpline(np.asarray(knots, dtype=float), np.asarray(coeffs, dtype=float), p)
    return spline(x, nu=nu)


def _basis_blocks(knots: np.ndarray, p: int, x: np.ndarray, nu: int):
    """Yield (slice, (block, dim) matrix of nu-th basis derivatives)."""
    knots = np.asarray(knots, dtype=float)
    dim = knots.size - p - 1
    basis = BSpline(knots, np.eye(dim), p)
    for start in range(0, x.size, _BLOCK):
        sl = slice(start, min(start + _BLOCK, x.size))
        yield sl, basis(x[sl], nu=nu)


def weighted_gram(knots, p: int, nu: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense matrix of integrals of d^nu b_i d^nu b_j."""
    dim = len(knots) - p - 1
    out = np.zeros((dim, dim))
    for sl, rows in _basis_blocks(knots, p, x, nu):
        out += (rows * w[sl, None]).T @ rows
    return out


def weighted_load(knots, p: int, nu: int, x: np.ndarray, w: np.ndarray, values) -> np.ndarray:
    """Vector of integrals of values * d^nu b_i."""
    dim = len(knots) - p - 1
    out = np.zeros(dim)
    for sl, rows in _basis_blocks(knots, p, x, nu):
        out += rows.T @ (values[sl] * w[sl])
    return out


def basis_norms(knots, p: int, nu: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """L2 norms of the nu-th derivatives of the basis functions."""
    dim = len(knots) - p - 1
    out = np.zeros(dim)
    for sl, rows in _basis_blocks(knots, p, x, nu):
        out += (rows * rows).T @ w[sl]
    return np.sqrt(out)


def l2_projection(knots, p: int, f) -> np.ndarray:
    """B-spline coefficients of the L2 projection of f (callable of x)."""
    x, w = gauss_points(breakpoints_of(knots))
    gram = weighted_gram(knots, p, 0, x, w)
    rhs = weighted_load(knots, p, 0, x, w, f(x))
    return solve(gram, rhs, assume_a="pos")


def error_norm(f, knots, coeffs, p: int, l: int) -> float:
    """Broken L2 norm of the l-th derivative of f - s (f takes (x, d))."""
    x, w = gauss_points(breakpoints_of(knots))
    d = f(x, l) - spline_values(knots, coeffs, p, x, l)
    return math.sqrt(float(np.sum(d * d * w)))


@lru_cache(maxsize=None)
def l2_projection_error(target: str, p: int, elements: int) -> float:
    """L2 error of the L2 projection onto C^{p-1} splines, uniform mesh on [0, 1]."""
    f = TARGETS[target]
    knots = clamped_knots(np.linspace(0.0, 1.0, elements + 1), p)
    coeffs = l2_projection(knots, p, lambda x: f(x, 0))
    return error_norm(f, knots, coeffs, p, 0)


@lru_cache(maxsize=None)
def ritz_type_projection(target: str, projector: str, p: int, q: int,
                         elements: int) -> tuple[BSpline, np.ndarray]:
    """Q or Ritz projection onto C^{p-1} splines, uniform mesh on [0, 1].

    Both projections have as q-th derivative the L2 projection of u^(q)
    onto the q-times derived space (degree p-q, maximal smoothness).  Its
    q-fold antiderivative from 0 (``BSpline.antiderivative``) is s0; Q adds
    the Taylor polynomial of u at 0, Ritz the polynomial of degree < q that
    zeroes the moments (u - s, x^i), i < q.  Returns (s0, c) with the
    projection s0 + sum_i c_i x^i.
    """
    f = TARGETS[target]
    breaks = np.linspace(0.0, 1.0, elements + 1)
    knots = clamped_knots(breaks, p - q)
    w = BSpline(knots, l2_projection(knots, p - q, lambda x: f(x, q)), p - q)
    s0 = w.antiderivative(q)
    if projector == "q":
        return s0, np.array([f(np.zeros(1), i)[0] / math.factorial(i) for i in range(q)])
    x, wts = gauss_points(breaks)
    powers = np.vstack([x**i for i in range(q)])
    moments = (powers * wts) @ powers.T
    return s0, solve(moments, (powers * wts) @ (f(x, 0) - s0(x)))


@lru_cache(maxsize=None)
def ritz_type_error(target: str, projector: str, p: int, q: int, elements: int, l: int) -> float:
    """Broken L2 norm of the l-th derivative of u minus its Q or Ritz projection."""
    s0, c = ritz_type_projection(target, projector, p, q, elements)
    x, w = gauss_points(np.linspace(0.0, 1.0, elements + 1))
    d = TARGETS[target](x, l) - s0(x, nu=l) - nppoly.polyval(x, nppoly.polyder(c, l))
    return math.sqrt(float(np.sum(d * d * w)))


@lru_cache(maxsize=None)
def ritz_minus_q_norm(target: str, p: int, q: int, elements: int, l: int) -> float:
    """L2 norm on [0, 1] of the l-th derivative of Ritz minus Q: a polynomial."""
    _, c_ritz = ritz_type_projection(target, "ritz", p, q, elements)
    _, c_q = ritz_type_projection(target, "q", p, q, elements)
    x, w = gauss_points(np.array([0.0, 1.0]))
    d = nppoly.polyval(x, nppoly.polyder(c_ritz - c_q, l))
    return math.sqrt(float(np.sum(d * d * w)))


# ---------------------------------------------------------------------------
# Clamped beam: transcendental roots and an independent discrete spectrum
# ---------------------------------------------------------------------------


def _beam_equation(mu: float) -> float:
    # cos(mu) cosh(mu) = 1 divided by cosh(mu); sech written without cosh so
    # that it cannot overflow for large mu.
    e = math.exp(-mu)
    return math.cos(mu) - 2.0 * e / (1.0 + e * e)


@lru_cache(maxsize=None)
def beam_root(i: int) -> float:
    """i-th positive root of cos(mu) cosh(mu) = 1 (clamped-clamped beam).

    The i-th root lies in (i pi, (i+1) pi), where the equation changes sign.
    """
    return brentq(_beam_equation, i * math.pi, (i + 1) * math.pi, xtol=1e-15)


@lru_cache(maxsize=None)
def beam_eigenvalues(count: int) -> tuple[float, ...]:
    """First `count` eigenvalues mu_i^4 of u'''' = lambda u, clamped on [0, 1]."""
    return tuple(beam_root(i) ** 4 for i in range(1, count + 1))


def biharmonic_lowest(p: int, elements: int, count: int) -> np.ndarray:
    """Lowest discrete clamped-biharmonic eigenvalues on C^{p-1} splines.

    Assembles stiffness and mass from BSpline basis derivatives on a uniform
    mesh of [0, 1], drops the two outermost basis functions at each end (the
    only ones with endpoint value or slope), and solves with eigh.
    """
    knots = clamped_knots(np.linspace(0.0, 1.0, elements + 1), p)
    x, w = gauss_points(breakpoints_of(knots), p + 2)
    keep = slice(2, knots.size - p - 1 - 2)
    stiff = weighted_gram(knots, p, 2, x, w)[keep, keep]
    mass = weighted_gram(knots, p, 0, x, w)[keep, keep]
    return eigh(stiff, mass, eigvals_only=True, subset_by_index=[0, count - 1])


# ---------------------------------------------------------------------------
# Self-test on closed forms
# ---------------------------------------------------------------------------


def self_test() -> None:
    """Raise RuntimeError if a closed form is not reproduced."""
    mu1 = beam_root(1)
    if abs(mu1 - 4.730040744862704) > 1e-14:
        raise RuntimeError(f"first clamped-beam root {mu1!r} != 4.730040744862704")

    # A cubic lies in every cubic spline space: the L2 projection onto a
    # nonuniform C^2 cubic space must reproduce it, values and derivatives.
    cubic = np.array([0.3, -1.2, 0.7, 2.5])
    breaks = np.array([0.0, 0.07, 0.2, 0.5, 0.55, 0.9, 1.0])
    knots = clamped_knots(breaks, 3)
    coeffs = l2_projection(knots, 3, lambda x: nppoly.polyval(x, cubic))
    x = np.linspace(0.0, 1.0, 41)
    for nu in range(4):
        want = nppoly.polyval(x, nppoly.polyder(cubic, nu))
        got = spline_values(knots, coeffs, 3, x, nu)
        if np.max(np.abs(got - want)) > 1e-10 * max(1.0, np.max(np.abs(want))):
            raise RuntimeError(f"cubic not reproduced in derivative {nu}")

    # The closed-form derivative tables agree with their defining formulas.
    x = np.linspace(-0.5, 1.5, 17)
    direct = np.exp(x) * np.sin(3 * x) + x**5 / (1 + x**2)
    if np.max(np.abs(expression(x, 0) - direct)) > 1e-12 * np.max(np.abs(direct)):
        raise RuntimeError("expression closed form disagrees with its definition")
    if np.max(np.abs(sin4x(x, 3) + 64.0 * np.cos(4 * x))) > 1e-12:
        raise RuntimeError("sin4x third derivative disagrees with -64 cos(4x)")
    # |sin4x|_{H^0} on [0, 1] against the definition sqrt(int sin^2(4x)).
    xg, wg = gauss_points(np.linspace(0.0, 1.0, 9), 20)
    direct_norm = math.sqrt(float(np.sum(np.sin(4 * xg) ** 2 * wg)))
    if abs(sin4x_seminorm(0) - direct_norm) > 1e-13:
        raise RuntimeError("sin4x seminorm closed form is wrong")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
