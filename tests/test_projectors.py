import re

import numpy as np
import pytest
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npp

from ritzspline.analysis import error_norm
from ritzspline.functions import SmoothFunction, builtin, resolve_function
from ritzspline.mesh import (
    Breakpoints,
    Spline,
    derive,
    eval_spline_many,
    integrate_from_left,
    make_space,
)
from ritzspline.projectors import (
    Levels,
    l2_project,
    poly_l2_project,
    q_project,
    qtilde_project,
    ritz_correction,
    ritz_project,
)
from ritzspline.quadrature import (
    ENV_ORDER,
    default_order,
    gram_matrix,
    load_values,
    load_vector,
    mesh_points,
)

from conftest import (
    first_element_poly,
    gauss_inner_product,
    random_breakpoints,
    random_smooth,
    smooth_mix,
    spline_norm,
)

UNIT = Breakpoints(np.array([0.0, 1.0]))


def poly_space(t):
    """Degree-t polynomials on [0,1] as a breakpoint-free spline space."""
    return make_space(t, t - 1, UNIT)


# ---------------------------------------------------------------------------
# frozen closed-form cases: x^6 with projector order 2 on P_2..P_5
# ---------------------------------------------------------------------------

X6_Q_COEFFS = {
    2: [0.0, 0.0, 3.0],
    3: [0.0, 0.0, -3.0, 4.0],
    4: [0.0, 0.0, 9 / 7, -32 / 7, 30 / 7],
    5: [0.0, 0.0, -3 / 14, 10 / 7, -45 / 14, 3.0],
}
X6_R_COEFFS = {
    2: [9 / 28, -33 / 14, 3.0],
    3: [17 / 140, 3 / 70, -3.0, 4.0],
    4: [-3 / 140, 3 / 70, 9 / 7, -32 / 7, 30 / 7],
    5: [0.0, 0.0, -3 / 14, 10 / 7, -45 / 14, 3.0],
}


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_order2_projections_of_x6(t):
    u = builtin("x6")
    space = poly_space(t)
    qs = q_project(space, 2, u)
    rs = ritz_project(space, 2, u)
    expect_q = np.zeros(t + 1)
    expect_q[: len(X6_Q_COEFFS[t])] = X6_Q_COEFFS[t]
    expect_r = np.zeros(t + 1)
    expect_r[: len(X6_R_COEFFS[t])] = X6_R_COEFFS[t]
    np.testing.assert_allclose(first_element_poly(qs), expect_q, atol=1e-10)
    np.testing.assert_allclose(first_element_poly(rs), expect_r, atol=1e-10)


def test_correction_polynomial_of_x6():
    u = builtin("x6")
    corr2 = ritz_correction(poly_space(2), 2, u)
    np.testing.assert_allclose(corr2, [9 / 28, -33 / 14], atol=1e-10)
    corr5 = ritz_correction(poly_space(5), 2, u)
    np.testing.assert_allclose(corr5, 0.0, atol=1e-10)


def test_projectors_coincide_from_degree_3q_minus_1():
    u = builtin("x6")
    for t in (5, 6):
        space = poly_space(t)
        qs = q_project(space, 2, u)
        rs = ritz_project(space, 2, u)
        assert np.max(np.abs(qs.coeffs - rs.coeffs)) < 1e-9


def test_right_endpoint_sharpness_for_low_degree():
    # order-2 projection of x^6 onto quadratics does not interpolate at b
    u = builtin("x6")
    qs = q_project(poly_space(2), 2, u)
    assert float(eval_spline_many(qs, 1.0)) == pytest.approx(3.0, abs=1e-10)
    # one degree more restores interpolation at b
    qs3 = q_project(poly_space(3), 2, u)
    assert float(eval_spline_many(qs3, 1.0)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# order-1 closed form on P_1: endpoint interpolation of the primitive data
# ---------------------------------------------------------------------------


def test_order1_projection_onto_linears_interpolates_endpoints(rng):
    space = make_space(1, 0, UNIT)
    for _ in range(10):
        u = random_smooth(rng)
        qs = q_project(space, 1, u)
        np.testing.assert_allclose(
            qs.coeffs, [u.eval(0.0), u.eval(1.0)], atol=1e-10
        )


# (target, p, q, elements, interval) for Q~ at q >= 2: degree 20 and an
# interval far from 0
QTILDE_CASES = [
    ("sin4x", 20, 2, 4, (0.0, 1.0)),
    ("runge", 20, 3, 8, (0.0, 1.0)),
    ("sin4x", 4, 3, 16, (1e6, 1e6 + 1.0)),
    ("sin4x", 5, 2, 8, (1e6, 1e6 + 1.0)),
]


def _qtilde_cases():
    return [
        (make_space(p, p - 1, Breakpoints.uniform(n, a, b)), q, builtin(name))
        for name, p, q, n, (a, b) in QTILDE_CASES
    ]


def test_mean_preserving_variant(rng):
    u = smooth_mix(1.3, 4.7, 0.8, 1.1, [0.2, -1.0, 0.5, 0.1])
    p1, p2 = make_space(1, 0, UNIT), make_space(2, 1, UNIT)
    # with quadratics available the two projectors agree
    d2 = q_project(p2, 1, u).coeffs - qtilde_project(p2, 1, u).coeffs
    assert np.max(np.abs(d2)) < 1e-10
    # on linears they differ: the plain projector misses the mean
    qs = q_project(p1, 1, u)
    xs, ws = mesh_points(UNIT, 30)
    mean_err = abs(
        float(np.sum((u.eval(xs.ravel()) - eval_spline_many(qs, xs.ravel())) * ws.ravel()))
    )
    assert mean_err > 1e-6
    # (u - Q~_q u, 1) = 0, here and on the q >= 2 cases
    for space, q, v in [(p1, 1, u)] + _qtilde_cases():
        xs, ws = mesh_points(space.breakpoints, 30)
        qt = qtilde_project(space, q, v)
        mean_err_t = abs(
            float(np.sum((v.eval(xs.ravel()) - eval_spline_many(qt, xs.ravel())) * ws.ravel()))
        )
        assert mean_err_t < 1e-10 * max(1.0, abs(v.eval(sum(space.interval) / 2)))


def test_mean_preserving_fixes_constants(rng):
    space = make_space(2, 1, random_breakpoints(rng, 2))
    u = smooth_mix(0.0, 1.0, 0.0, 0.0, [3.7, 0, 0, 0])  # constant 3.7
    qt = qtilde_project(space, 1, u)
    xs = rng.uniform(0, 1, 30)
    np.testing.assert_allclose(eval_spline_many(qt, xs), 3.7, atol=1e-11)


# ---------------------------------------------------------------------------
# L2 projection
# ---------------------------------------------------------------------------


def test_l2_mean_on_constants():
    space = make_space(0, -1, UNIT)
    u = smooth_mix(0.0, 1.0, 0.0, 0.0, [0.0, 1.0, 0, 0])  # u(x) = x
    np.testing.assert_allclose(l2_project(space, u).coeffs, [0.5], atol=1e-14)


def test_l2_idempotent_on_space_members(rng):
    space = make_space(3, 1, random_breakpoints(rng, 3))
    s = Spline(space, rng.normal(size=space.dim))
    u = SmoothFunction(lambda x, orders: eval_spline_many(s, x, orders), 3, "member")
    rec = l2_project(space, u)
    assert np.max(np.abs(rec.coeffs - s.coeffs)) < 1e-10


def test_l2_residual_orthogonality(rng):
    u = builtin("sin4x")
    space = make_space(3, 2, Breakpoints(np.linspace(0, 1, 9)))
    s = l2_project(space, u)
    gram = gram_matrix(space, 0).to_dense()
    resid = load_vector(space, lambda x: u.eval(x)) - gram @ s.coeffs
    assert np.max(np.abs(resid)) < 1e-10


L2_MESHES = {
    "uniform": Breakpoints.uniform(8),
    "graded": Breakpoints.uniform(8, grading=3.0),
    "one-element": UNIT,
}


@pytest.mark.parametrize("function", ["sin4x", "runge", "exp(x)*sin(3*x)+x^5/(1+x^2)"])
def test_l2_project_is_the_banded_normal_equations(function):
    """L2 is the order-0 boundary projection, computed as the solve of its
    Gram system with the load on the error-norm grid, bit for bit: every
    degree, smoothness -1 and p - 1, uniform, graded and one-element meshes,
    and sin4x far from 0."""
    u = resolve_function(function)
    cases = [(p, k, xi) for xi in L2_MESHES.values()
             for p in range(21) for k in sorted({-1, p - 1})]
    if function == "sin4x":
        far = Breakpoints.uniform(4, 1e6, 1e6 + 1.0)
        cases += [(p, k, far) for p in range(21) for k in sorted({-1, p - 1})]
    for p, k, xi in cases:
        space = make_space(p, k, xi)
        want = gram_matrix(space).solve_spd(load_vector(space, u.eval))
        assert np.array_equal(l2_project(space, u).coeffs, want), (p, k, xi.points)


@pytest.mark.parametrize("order", [None, "17"], ids=["default-orders", "override-17"])
@pytest.mark.parametrize("mesh", ["uniform", "graded"])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_q_project_is_the_one_space_helpers(monkeypatch, order, mesh, q):
    """Q_q, p = 3, is the solve of the Gram system that gram_matrix and
    load_vector assemble for u^(q) in the q-times derived space, integrated
    q times from the left with the constants u^(i)(a), bit for bit: the
    helpers and the projectors take their Gauss orders from one policy, the
    override included."""
    if order is not None:
        monkeypatch.setenv(ENV_ORDER, order)
    u = builtin("sin4x")
    space = derived = make_space(3, 2, L2_MESHES[mesh])
    for _ in range(q):
        derived = derived.derived()
    load = load_vector(derived, lambda x: u.eval(x, q))
    s = Spline(derived, gram_matrix(derived).solve_spd(load))
    for i in reversed(range(q)):
        s = integrate_from_left(s)
        s = Spline(s.space, s.coeffs + u.eval(space.breakpoints.a, i))
    assert np.array_equal(s.coeffs, q_project(space, q, u).coeffs)


def test_helpers_take_no_gauss_order():
    """A Gauss order passed as the old trailing argument is a TypeError, not
    a derivative order or an ignored value."""
    space, f = make_space(3, 2, Breakpoints.uniform(4)), np.cos
    for call in (lambda: gram_matrix(space, 0, 4), lambda: load_vector(space, f, 30),
                 lambda: poly_l2_project(2, f, UNIT, 3)):
        with pytest.raises(TypeError):
            call()


def test_l2_error_within_smoothest_space_bound():
    # degree 3 maximal smoothness, h = 1/8: error <= (h/pi)^4 |u''''|
    from ritzspline.bounds import BoundQuery, error_coefficient
    from ritzspline.analysis import function_seminorm

    u = builtin("sin4x")
    xi = Breakpoints.uniform(8)
    space = make_space(3, 2, xi)
    err = error_norm(u, l2_project(space, u))
    coeff = error_coefficient(BoundQuery(p=3, k=2, q=0, l=0, r=4, h=xi.h))
    assert err <= coeff * function_seminorm(u, 4, xi) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# polynomial L2 projection
# ---------------------------------------------------------------------------


def test_poly_projection_of_square():
    u = smooth_mix(0.0, 1.0, 0.0, 0.0, [0.0, 0.0, 1.0, 0.0])  # x^2
    pol = poly_l2_project(1, u.eval, UNIT)
    np.testing.assert_allclose(pol, [-1 / 6, 1.0], atol=1e-12)


# one element, far from 0, away from 0, graded
POLY_MESHES = [
    UNIT,
    Breakpoints.uniform(8, 1e6, 1e6 + 1.0),
    Breakpoints.uniform(6, 1.0, 3.0),
    Breakpoints.uniform(16, grading=3.0),
]


def test_poly_projection_idempotent(rng):
    for xi in POLY_MESHES:
        for deg in range(9):
            want = rng.normal(size=deg + 1)
            f = lambda x: npp.polyval(x - xi.a, want)
            got = poly_l2_project(deg, f, xi)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale, (xi.a, deg)


def test_poly_projection_reproduces_a_polynomial_of_its_degree():
    """x^5 + 2 x^3 onto degree 5 on one element is itself: the moment matrix
    is exact on the default grid (an order-3 grid once gave
    [-0.176, 1.99, -3.733, 0.993, 4.533, -0.376])."""
    pol = poly_l2_project(5, lambda x: x**5 + 2 * x**3, UNIT)
    np.testing.assert_allclose(pol, [0, 0, 0, 2, 0, 1], atol=1e-12)


def test_poly_projection_mean_of_sin():
    pol = poly_l2_project(0, builtin("sin4x").eval, UNIT)
    np.testing.assert_allclose(pol, [(1 - np.cos(4.0)) / 4], atol=1e-13)


def test_poly_projection_of_spline_input(rng):
    space = make_space(2, 0, random_breakpoints(rng, 2))
    s = Spline(space, rng.normal(size=space.dim))
    # spline times degree-2 Legendre: degree 4, exact on the default grid
    pol = poly_l2_project(2, lambda x: eval_spline_many(s, x), space.breakpoints)
    # projection residual is orthogonal to P_2 (check against monomials)
    xs, ws = mesh_points(space.breakpoints, 24)
    flat, wflat = xs.ravel(), ws.ravel()
    resid = eval_spline_many(s, flat) - npp.polyval(flat - space.breakpoints.a, pol)
    for i in range(3):
        assert abs(np.sum(resid * flat**i * wflat)) < 1e-12


# ---------------------------------------------------------------------------
# structural identities on spline spaces
# ---------------------------------------------------------------------------


def _setup(rng, p=None, k=None, q=None, interior=3):
    if p is None:
        p = int(rng.integers(2, 6))
    if k is None:
        k = int(rng.integers(max(0, p - 3), p))
    if q is None:
        q = int(rng.integers(1, min(k + 1, 3) + 1))
    space = make_space(p, k, random_breakpoints(rng, interior))
    return space, q


def test_left_boundary_interpolation(rng):
    for _ in range(10):
        space, q = _setup(rng)
        u = random_smooth(rng)
        s = q_project(space, q, u)
        for l in range(q):
            want = u.eval(0.0, l)
            assert abs(float(eval_spline_many(s, 0.0, l)) - want) <= 1e-9 * max(1.0, abs(want))


def test_right_boundary_interpolation_when_degree_allows(rng):
    for _ in range(10):
        space, q = _setup(rng)
        u = random_smooth(rng)
        s = q_project(space, q, u)
        for l in range(q):
            if space.degree >= 2 * q - l - 1:
                want = u.eval(1.0, l)
                assert abs(float(eval_spline_many(s, 1.0, l)) - want) <= 1e-9 * max(1.0, abs(want))


def test_galerkin_orthogonality(rng):
    from ritzspline.analysis import function_seminorm

    for _ in range(6):
        space, q = _setup(rng)
        u = random_smooth(rng)
        s = q_project(space, q, u)
        gram = gram_matrix(space, q)
        resid = load_vector(
            space, lambda x: u.eval(x, q), deriv=q
        ) - gram.to_dense() @ s.coeffs
        # Cauchy-Schwarz row scale: |d^q u| |d^q b_i| (the latter grows ~h^-q)
        scale = np.maximum(
            1.0,
            function_seminorm(u, q, space.breakpoints) * np.sqrt(gram.bands[0]),
        )
        assert np.max(np.abs(resid) / scale) <= 1e-9


def test_commuting_with_derivative(rng):
    # derive(Q_q u) = derive(Q~_q u) = Q_{q-1} u', the defining recursion
    cases = [(*_setup(rng), random_smooth(rng)) for _ in range(6)] + _qtilde_cases()
    for space, q, u in cases:
        du = SmoothFunction(
            lambda x, orders: u.eval(x, [d + 1 for d in orders]), u.max_order - 1, "u'"
        )
        right = q_project(space.derived(), q - 1, du)
        scale = max(1.0, float(np.max(np.abs(right.coeffs))))
        for project in (q_project, qtilde_project):
            left = derive(project(space, q, u))
            assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-10 * scale


def test_moment_conservation(rng):
    for _ in range(6):
        space, q = _setup(rng, p=5, k=4, q=2)
        u = random_smooth(rng)
        s = q_project(space, q, u)
        xs, ws = mesh_points(space.breakpoints, 40)
        flat, wflat = xs.ravel(), ws.ravel()
        p = space.degree
        for l in range(q + 1):
            if p >= 2 * q - l:
                d = u.eval(flat, l) - eval_spline_many(s, flat, l)
                ref = max(1.0, abs(float(np.sum(u.eval(flat, l) * wflat))))
                assert abs(float(np.sum(d * wflat))) <= 1e-9 * ref
        e0 = u.eval(flat) - eval_spline_many(s, flat)
        for i in range(q):
            if p >= 2 * q + i:
                ref = max(1.0, abs(float(np.sum(u.eval(flat) * flat**i * wflat))))
                assert abs(float(np.sum(e0 * flat**i * wflat))) <= 1e-9 * ref


def test_pythagoras_identity(rng):
    from ritzspline.analysis import function_seminorm

    for _ in range(6):
        space, q = _setup(rng)
        u = random_smooth(rng)
        qs = q_project(space, q, u)
        rs = ritz_project(space, q, u)
        corr = ritz_correction(space, q, u)
        xs, ws = mesh_points(space.breakpoints, 40)
        corr_vals = npp.polyval(xs.ravel() - space.breakpoints.a, corr)
        e_norm2 = float(np.sum(corr_vals**2 * ws.ravel()))
        eq = error_norm(u, qs)
        lhs = error_norm(u, rs) ** 2
        rhs = eq**2 - e_norm2
        # the squared norms themselves carry ~eps |u| eq of cancellation noise
        unorm = function_seminorm(u, 0, space.breakpoints)
        tol = max(1e-9 * eq**2, 1e-13 * unorm * eq)
        assert abs(lhs - rhs) <= tol


def test_ritz_error_never_exceeds_boundary_projection_error(rng):
    for _ in range(6):
        space, q = _setup(rng)
        u = random_smooth(rng)
        assert error_norm(u, ritz_project(space, q, u)) <= error_norm(
            u, q_project(space, q, u)
        ) * (1 + 1e-12)


def test_top_seminorm_equality(rng):
    for _ in range(6):
        space, q = _setup(rng)
        u = random_smooth(rng)
        a = error_norm(u, ritz_project(space, q, u), q)
        b = error_norm(u, q_project(space, q, u), q)
        assert a == pytest.approx(b, rel=1e-10)


# (target, p, q, elements, grading, interval): fine meshes, q = 4, q = 0,
# p = 20, a graded mesh and an interval far from 0.  A Ritz solve in B-spline
# coordinates, whose stiffness condition grows like h^(-2q), misses most of
# these by far more than the tolerance (1.5 relative at p = 8, q = 4).
SADDLE_EDGE_CASES = [
    ("sin4x", 4, 3, 128, 1.0, (0.0, 1.0)),
    ("sin4x", 4, 3, 512, 1.0, (0.0, 1.0)),
    ("sin4x", 8, 3, 64, 1.0, (0.0, 1.0)),
    ("sin4x", 8, 4, 256, 1.0, (0.0, 1.0)),
    ("runge", 4, 3, 64, 3.0, (0.0, 1.0)),
    ("sin4x", 4, 0, 16, 1.0, (0.0, 1.0)),
    ("sin4x", 20, 4, 8, 1.0, (0.0, 1.0)),
    ("sin4x", 4, 3, 32, 1.0, (1e6, 1e6 + 1.0)),
]


def test_correction_equals_saddle(rng):
    cases = [(*_setup(rng), random_smooth(rng)) for _ in range(6)]
    cases += [
        (make_space(p, p - 1, Breakpoints.uniform(n, a, b, grading)), q, builtin(name))
        for name, p, q, n, grading, (a, b) in SADDLE_EDGE_CASES
    ]
    for space, q, u in cases:
        r1 = ritz_project(space, q, u, method="correction")
        r2 = ritz_project(space, q, u, method="saddle")
        scale = max(1.0, float(np.max(np.abs(r1.coeffs))))
        assert np.max(np.abs(r1.coeffs - r2.coeffs)) <= 1e-8 * scale


def test_correction_equals_saddle_far_from_zero():
    # both routes share one polynomial projection, so on [1e6, 1e6+1] they
    # agree to roundoff of the coefficients
    space = make_space(4, 3, Breakpoints.uniform(8, 1e6, 1e6 + 1.0))
    u = builtin("sin4x")
    r1 = ritz_project(space, 4, u, method="correction")
    r2 = ritz_project(space, 4, u, method="saddle")
    scale = float(np.max(np.abs(r1.coeffs)))
    assert np.max(np.abs(r1.coeffs - r2.coeffs)) <= 1e-13 * scale


def _dense_kkt_ritz(space, q, u):
    """Reference Ritz projection: the dense KKT system in B-spline
    coordinates, order-q stiffness bordered by the moments against the
    shifted Legendre polynomials.  Its condition grows like h^(-2q), so it
    serves only on coarse meshes."""
    xi, dim = space.breakpoints, space.dim
    n = default_order(space.degree, xi)
    kkt = np.zeros((dim + q, dim + q))
    kkt[:dim, :dim] = gram_matrix(space, q).to_dense()
    rhs = np.zeros(dim + q)
    rhs[:dim] = load_vector(space, lambda x: u.eval(x, q), deriv=q)
    a, b = space.interval
    for j in range(q):
        gj = lambda x, j=j: legendre.Legendre.basis(j)(2.0 * (x - a) / (b - a) - 1.0)
        kkt[:dim, dim + j] = load_vector(space, gj)
        rhs[dim + j] = gauss_inner_product(lambda x: u.eval(x), gj, xi, n)
    kkt[dim:, :dim] = kkt[:dim, dim:].T
    return np.linalg.solve(kkt, rhs)[:dim]


@pytest.mark.parametrize("p,k,q,interior", [
    (2, 1, 1, 3), (3, 2, 2, 7), (4, 3, 2, 15), (5, 3, 1, 15), (3, 1, 0, 7), (4, 2, 2, 0),
])
def test_saddle_equals_dense_kkt(rng, p, k, q, interior):
    space = make_space(p, k, random_breakpoints(rng, interior))
    u = random_smooth(rng)
    want = _dense_kkt_ritz(space, q, u)
    got = ritz_project(space, q, u, method="saddle").coeffs
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_difference_is_low_degree_polynomial(rng):
    space, q = _setup(rng, p=4, k=3, q=2)
    u = random_smooth(rng)
    diff = ritz_project(space, q, u) - q_project(space, q, u)
    # a degree <= q-1 polynomial: its q-th derivative vanishes
    assert spline_norm(diff, q) <= 1e-9 * max(1.0, spline_norm(diff, 0))


def test_ritz_moment_constraints(rng):
    for _ in range(6):
        space, q = _setup(rng)
        u = random_smooth(rng)
        rs = ritz_project(space, q, u)
        xs, ws = mesh_points(space.breakpoints, 40)
        flat, wflat = xs.ravel(), ws.ravel()
        resid = u.eval(flat) - eval_spline_many(rs, flat)
        for i in range(q):
            ref = max(1.0, abs(float(np.sum(u.eval(flat) * flat**i * wflat))))
            assert abs(float(np.sum(resid * flat**i * wflat))) <= 1e-9 * ref


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------


def test_order_beyond_smoothness_rejected():
    space = make_space(3, 1, UNIT)
    with pytest.raises(ValueError, match="k\\+1"):
        q_project(space, 3, builtin("sin4x"))


def test_order_beyond_function_rejected():
    u = SmoothFunction(lambda x, orders: np.zeros((len(orders), *x.shape)), 1, "once")
    space = make_space(4, 3, UNIT)
    with pytest.raises(ValueError, match="max_order"):
        q_project(space, 2, u)


@pytest.mark.parametrize("projector, q", [("l2", 0), ("q", 1), ("ritz", 2)])
def test_levels_of_two_degrees_rejected(projector, q):
    from ritzspline.projectors import Levels

    levels = Levels(builtin("sin4x"), [make_space(2, 1, UNIT), make_space(3, 2, UNIT)])
    with pytest.raises(ValueError, match="requires spaces of one degree"):
        levels.project(projector, q)


def test_levels_of_no_space_rejected():
    from ritzspline.projectors import Levels

    with pytest.raises(ValueError, match="^requires at least one space for Levels: got none$"):
        Levels(builtin("sin4x"), [])


@pytest.mark.parametrize("tabulated,asked,missing", [
    ((0,), (3,), [3]), ((0, 1), (2, 0, 1, 5), [2, 5]), ((), (1,), [1]),
])
def test_levels_name_an_order_they_did_not_tabulate(tabulated, asked, missing):
    """u_values and the sample's splines and assembly read only the orders
    of the sample, order 0 and those of the Levels; another is named."""
    space = make_space(3, 2, Breakpoints.uniform(4))
    levels = Levels(builtin("sin4x"), [space], tabulated)
    sample = levels.sample
    for call, got in (
        (lambda: levels.u_values(asked), missing),
        (lambda: sample.spline(np.zeros(space.dim), asked), missing),
        (lambda: load_values(sample, sample.points, missing[-1]), missing[-1:]),
    ):
        message = (f"requires orders the grid table holds: got {got}, "
                   f"tabulated {sorted({0, *tabulated})}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_q_zero_is_plain_l2(rng):
    space = make_space(2, 1, random_breakpoints(rng, 2))
    u = random_smooth(rng)
    np.testing.assert_allclose(
        q_project(space, 0, u).coeffs, l2_project(space, u).coeffs, atol=1e-12
    )
    np.testing.assert_allclose(
        ritz_project(space, 0, u).coeffs, l2_project(space, u).coeffs, atol=1e-12
    )


def test_overflowing_function_rejected():
    space = make_space(3, 2, Breakpoints.uniform(4, 1e6, 1e6 + 1.0))
    with pytest.raises(ValueError, match=r"requires u finite on the interval.*exp\(x\)"):
        l2_project(space, builtin("exp"))


def test_unknown_ritz_method():
    with pytest.raises(ValueError, match="method"):
        ritz_project(make_space(2, 1, UNIT), 1, builtin("sin4x"), method="direct")


def test_projection_order_names_the_projectors():
    """L2 is Q_0 at every q; any other name outside PROJECTORS is rejected
    with the names available."""
    from ritzspline.projectors import PROJECTORS, Levels, projection_order

    assert [projection_order(name, 3) for name in PROJECTORS] == [0, 3, 3, 3]
    levels = Levels(builtin("sin4x"), [make_space(2, 1, UNIT)])
    message = r"unknown projector 'h1'; available: l2, q, qtilde, ritz$"
    with pytest.raises(ValueError, match=message):
        levels.project("h1", 2)


def test_one_levels_computes_q_and_the_correction_once(monkeypatch):
    """Q, R and the correction of one Levels at one q share one boundary
    projection and one residual fit, whichever is asked for first; the
    difference study takes the same route."""
    from ritzspline import analysis, projectors

    calls = {"ritz_types": [], "residual_fits": 0}
    ritz_types, residual_fits = projectors._ritz_types, projectors._residual_fits

    def counted_ritz_types(levels, q, m):
        calls["ritz_types"].append(m)
        return ritz_types(levels, q, m)

    def counted_residual_fits(*args):
        calls["residual_fits"] += 1
        return residual_fits(*args)

    monkeypatch.setattr(projectors, "_ritz_types", counted_ritz_types)
    monkeypatch.setattr(projectors, "_residual_fits", counted_residual_fits)
    u = builtin("sin4x")
    spaces = [make_space(3, 2, Breakpoints.uniform(n)) for n in (4, 8)]
    levels = projectors.Levels(u, spaces)
    qs = levels.project("q", 2)
    rs = levels.project("ritz", 2)
    corr = levels.correction(2)
    assert calls == {"ritz_types": [0], "residual_fits": 1}
    levels = projectors.Levels(u, spaces)
    assert np.array_equal(levels.correction(2), corr)
    levels.project("ritz", 2)
    levels.project("q", 2)
    assert calls == {"ritz_types": [0, 0], "residual_fits": 2}
    ends = np.cumsum([space.dim for space in spaces])[:-1]
    for space, qsp, rsp, c in zip(
        spaces, np.split(qs, ends), np.split(rs, ends), corr, strict=True
    ):
        assert np.array_equal(qsp, q_project(space, 2, u).coeffs)
        assert np.array_equal(rsp, ritz_project(space, 2, u).coeffs)
        assert np.array_equal(c, ritz_correction(space, 2, u))

    calls["ritz_types"].clear()
    analysis.rq_difference_study(u, 3, 2, 2, (0,), levels=3)
    assert calls["ritz_types"] == [0]
