from math import factorial

import numpy as np
import pytest

from ritzspline.analysis import _spline_norms
from ritzspline.functions import SmoothFunction
from ritzspline.mesh import Breakpoints, Spline, eval_spline_many, make_space
from ritzspline.projectors import Levels
from ritzspline.quadrature import mesh_points


def random_breakpoints(rng, n_interior=None, a=0.0, b=1.0):
    """Strictly increasing mesh with well-separated interior points."""
    if n_interior is None:
        n_interior = int(rng.integers(0, 5))
    if n_interior == 0:
        return Breakpoints(np.array([a, b]))
    cuts = np.sort(rng.uniform(0.08, 0.92, size=n_interior))
    while np.any(np.diff(cuts) < 0.02):
        cuts = np.sort(rng.uniform(0.08, 0.92, size=n_interior))
    return Breakpoints(np.concatenate([[a], a + (b - a) * cuts, [b]]))


def random_spline(rng, space):
    return Spline(space, rng.normal(size=space.dim))


def random_space(rng, p_max=5):
    p = int(rng.integers(0, p_max + 1))
    k = int(rng.integers(-1, p))
    return make_space(p, k, random_breakpoints(rng))


def smooth_mix(amp_sin, freq, amp_exp, rate, poly_coeffs):
    """Closed-form smooth function: sine + exponential + cubic polynomial."""
    poly = np.asarray(poly_coeffs, dtype=float)

    def derivative(x, d):
        out = amp_sin * freq**d * np.sin(freq * x + d * np.pi / 2.0)
        out = out + amp_exp * rate**d * np.exp(rate * x)
        pc = poly.copy()
        for _ in range(d):
            pc = pc[1:] * np.arange(1, pc.size)
            if pc.size == 0:
                pc = np.zeros(1)
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in pc[::-1]:
            acc = acc * x + c
        return out + acc

    return SmoothFunction(
        lambda x, orders: [derivative(x, d) for d in orders], 1_000_000, "sine+exp+cubic mix"
    )


def random_smooth(rng):
    return smooth_mix(
        float(rng.uniform(0.3, 2.0)),
        float(rng.uniform(0.5, 6.0)),
        float(rng.uniform(0.2, 1.5)),
        float(rng.uniform(-1.5, 1.5)),
        rng.normal(size=4),
    )


def project_one(name, space, q, u):
    """The projector named as on the CLI, applied to u on one space."""
    return Spline(space, Levels(u, [space]).project(name, q))


def spline_norm(s, l):
    """Broken L2 norm of the l-th derivative of a spline, on the exact grid."""
    (norms,) = _spline_norms([s.space], s.coeffs, [l])
    return norms[0]


def first_element_poly(s):
    """Coefficients c_i = s^(i)(a)/i! of the first element's polynomial of
    ``s`` in the shifted monomials (x-a)^i."""
    p = s.space.degree
    derivs = eval_spline_many(s, [s.space.breakpoints.a], range(p + 1))[:, 0]
    return derivs / [factorial(i) for i in range(p + 1)]


def gauss_inner_product(f, g, xi, n):
    """Elementwise n-point Gauss approximation of the L2 inner product (f, g)."""
    xs, ws = mesh_points(xi, n)
    flat = xs.ravel()
    return float(np.sum(np.asarray(f(flat)) * np.asarray(g(flat)) * ws.ravel()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
