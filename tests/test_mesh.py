import dataclasses

import numpy as np
from numpy.polynomial import polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.mesh import (
    Breakpoints,
    Spline,
    derive,
    embed,
    eval_spline_many,
    integrate_from_left,
    make_space,
    poly_to_spline,
)
from ritzspline.mesh import _basis_table, _dual_coefficients

from conftest import first_element_poly, random_breakpoints, random_space, random_spline


def _basis_at(space, x):
    """First index and values of the p+1 basis functions that may be nonzero at x."""
    first, vals = _basis_table(space, [x], (0,))
    return int(first[0]), vals[0, :, 0]


# ---------------------------------------------------------------------------
# independent oracle: B-splines as divided differences of truncated powers
# ---------------------------------------------------------------------------


def _divided_difference(ys, f, dfs):
    """Divided difference over the (sorted, possibly repeated) nodes ys.

    ``dfs[m](y)`` must be the m-th derivative of f; repeated nodes use the
    confluent rule [y,...,y]f = f^(m)(y)/m!.
    """
    from math import factorial

    memo = {}

    def dd(lo, hi):
        key = (lo, hi)
        if key in memo:
            return memo[key]
        if ys[lo] == ys[hi]:
            m = hi - lo
            val = dfs[m](ys[lo]) / factorial(m)
        else:
            val = (dd(lo + 1, hi) - dd(lo, hi - 1)) / (ys[hi] - ys[lo])
        memo[key] = val
        return val

    return dd(0, len(ys) - 1)


def bspline_by_truncated_powers(knots, p, i, x):
    """B_{i,p}(x) = (t_{i+p+1} - t_i) [t_i..t_{i+p+1}] (y - x)_+^p."""
    from math import factorial

    ys = list(knots[i : i + p + 2])
    if ys[0] == ys[-1]:
        return 0.0

    def deriv(m):
        def f(y):
            if y <= x:
                return 0.0
            return factorial(p) / factorial(p - m) * (y - x) ** (p - m)

        return f

    dfs = [deriv(m) if m <= p else (lambda y: 0.0) for m in range(p + 2)]
    return (ys[-1] - ys[0]) * _divided_difference(ys, None, dfs)


def test_basis_matches_truncated_power_oracle(rng):
    xi = Breakpoints(np.array([0.0, 0.5, 1.0]))
    space = make_space(2, 1, xi)
    first, vals = _basis_at(space, 0.25)
    assert abs(vals.sum() - 1.0) < 1e-13
    for j, v in enumerate(vals):
        ref = bspline_by_truncated_powers(space.knots, 2, first + j, 0.25)
        assert v == pytest.approx(ref, abs=1e-12)
    # a few random spaces and points, avoiding the knots themselves
    for _ in range(10):
        space = random_space(rng, p_max=4)
        x = float(rng.uniform(0.01, 0.99))
        while np.any(np.abs(space.knots - x) < 1e-6):
            x = float(rng.uniform(0.01, 0.99))
        first, vals = _basis_at(space, x)
        for j, v in enumerate(vals):
            ref = bspline_by_truncated_powers(space.knots, space.degree, first + j, x)
            assert v == pytest.approx(ref, abs=1e-11)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_dimension_examples():
    assert make_space(2, 1, Breakpoints(np.array([0, 0.5, 1.0]))).dim == 4
    assert make_space(3, 2, Breakpoints(np.array([0, 1.0]))).dim == 4
    assert make_space(3, -1, Breakpoints(np.array([0, 0.5, 1.0]))).dim == 8


def test_dim_matches_knot_count(rng):
    for _ in range(20):
        space = random_space(rng)
        assert space.knots.size == space.dim + space.degree + 1


def test_knots_are_the_clamped_vector_and_read_only(rng):
    """The knot vector follows from (degree, smoothness, breakpoints): end
    points p+1 times, interior breakpoints p-k times; it cannot be written
    or reassigned."""
    for _ in range(20):
        space = random_space(rng)
        p, k, pts = space.degree, space.smoothness, space.breakpoints.points
        mult = [p + 1] + [p - k] * (pts.size - 2) + [p + 1]
        assert np.array_equal(space.knots, np.repeat(pts, mult))
        assert space.knots is space.knots
        assert not space.knots.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            space.knots[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.knots = space.knots.copy()


def test_make_space_rejects_bad_smoothness():
    xi = Breakpoints(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        make_space(2, 2, xi)
    with pytest.raises(ValueError):
        make_space(2, -2, xi)
    with pytest.raises(ValueError, match="requires degree p >= 0"):
        make_space(-1, -1, xi)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        Breakpoints(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Breakpoints(np.array([1.0]))


@pytest.mark.parametrize("points", [[0.0, np.inf], [0.0, np.nan, 1.0], [-np.inf, 0.0], [np.nan]])
def test_breakpoints_must_be_finite(points):
    """Checked first: a nan is not reported as a failure to increase."""
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        Breakpoints(np.array(points))


def test_breakpoint_metrics():
    xi = Breakpoints(np.array([0.0, 0.25, 1.0]))
    assert xi.h == 0.75
    assert xi.num_interior == 1


def test_eval_outside_domain_rejected():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    s = Spline(space, [0.0, 1.0])
    with pytest.raises(ValueError):
        eval_spline_many(s, 1.5)
    with pytest.raises(ValueError):
        _basis_at(space, -0.1)
    with pytest.raises(ValueError):
        eval_spline_many(s, np.array([0.2, 0.5, 1.0 + 1e-12]))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_hat_functions_midpoint():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    first, vals = _basis_at(space, 0.5)
    assert first == 0
    np.testing.assert_allclose(vals, [0.5, 0.5])


def test_constant_basis():
    space = make_space(0, -1, Breakpoints(np.array([0.0, 1.0])))
    first, vals = _basis_at(space, 0.3)
    assert vals.tolist() == [1.0]


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    p=st.integers(0, 6),
    seed=st.integers(0, 2**31),
)
def test_partition_of_unity(x, p, seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(-1, p))
    space = make_space(p, k, random_breakpoints(r))
    _, vals = _basis_at(space, x)
    assert abs(vals.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8, 13, 20])
def test_eval_spline_many_matches_scipy_bspline(p):
    """Point evaluation against scipy's B-spline evaluator (zero for d > p)."""
    from scipy.interpolate import BSpline

    r = np.random.default_rng(1000 + p)
    for k in sorted({-1, p // 2 - 1, p - 1}):
        for grading in (1.0, 2.5, 4.0):
            space = make_space(p, k, Breakpoints.uniform(6, 0.0, 1.0, grading=grading))
            s = random_spline(r, space)
            xs = r.uniform(0.0, 1.0, 60)
            for d in range(p + 2):
                got = eval_spline_many(s, xs, d)
                if d > p:
                    assert np.all(got == 0.0)
                    continue
                want = BSpline(space.knots, s.coeffs, p)(xs, nu=d)
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= 1e-12, (k, grading, d, gap)


def _single_order_table(space, xs, deriv):
    """One derivative order alone: Cox-de Boor to degree p - deriv, then
    deriv derivative steps, in the kernel's operand order.  Point-major,
    (npts, p+1), unlike the kernel's degree-major tables."""
    p, t = space.degree, space.knots
    x = np.asarray(xs, dtype=float).ravel()
    span = np.searchsorted(t, x, side="right") - 1
    span = np.clip(span, p, t.size - p - 2)
    vals = np.zeros((x.size, p + 1))
    if deriv > p:
        return span - p, vals
    vals[:, 0] = 1.0
    x = x[:, None]
    window = t[span[:, None] + np.arange(1 - p, p + 1)]
    for j in range(1, p + 1):
        hi, lo = window[:, p : p + j], window[:, p - j : p]
        if j <= p - deriv:
            temp = vals[:, :j] / (hi - lo)
            vals[:, :j] = (hi - x) * temp
            vals[:, 1 : j + 1] += (x - lo) * temp
        else:
            temp = j * vals[:, :j] / (hi - lo)
            vals[:, :j] = -temp
            vals[:, 1 : j + 1] += temp
    return span - p, vals


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8, 13, 20])
def test_multi_order_basis_table_matches_single_orders(p):
    """One degree-major sweep for many orders gives each order's own
    point-major sweep, bit for bit: orders shuffled and repeated, graded and
    far-off meshes."""
    r = np.random.default_rng(2000 + p)
    meshes = (
        Breakpoints.uniform(5, -0.5, 2.0, grading=3.0),
        Breakpoints.uniform(3, 1e6, 1e6 + 1.0),
        random_breakpoints(r, 4),
    )
    for xi in meshes:
        for k in sorted({-1, p // 2 - 1, p - 1}):
            space = make_space(p, k, xi)
            xs = np.concatenate([r.uniform(xi.a, xi.b, 30), xi.points])
            orders = list(r.permutation(p + 2)) + [0, p + 1, p // 2]
            first, vals = _basis_table(space, xs, orders)
            assert vals.shape == (len(orders), p + 1, xs.size)
            for d, got in zip(orders, vals):
                want_first, want = _single_order_table(space, xs, d)
                assert np.array_equal(first, want_first)
                assert np.array_equal(got.T, want), (xi.a, k, d)
            s = random_spline(r, space)
            grid = xs.reshape(-1, 1)
            many = eval_spline_many(s, grid, orders)
            assert many.shape == (len(orders), *grid.shape)
            for d, got in zip(orders, many):
                assert np.array_equal(got, eval_spline_many(s, grid, int(d)))


@pytest.mark.parametrize("p", [0, 1, 2, 4, 6, 7, 8, 13, 20])
def test_eval_spline_many_matches_point_major_contraction(p):
    """The sum over the degree axis of the degree-major tables against the
    point-major contraction, np.sum over the last axis: bit for bit up to
    p = 6, where numpy adds the p+1 terms in the same order.  From p = 7 on
    numpy's pairwise summation groups them differently, and two orders of
    summing the p+1 products c_j B_j differ by at most 2p eps sum_j |c_j B_j|."""
    r = np.random.default_rng(3000 + p)
    eps = np.finfo(float).eps
    for xi in (random_breakpoints(r, 5), Breakpoints.uniform(4, -1.0, 3.0, grading=2.5)):
        for k in sorted({-1, p // 2 - 1, p - 1}):
            space = make_space(p, k, xi)
            s = random_spline(r, space)
            xs = np.concatenate([r.uniform(xi.a, xi.b, 200), xi.points])
            orders = list(range(p + 2))
            first, vals = _basis_table(space, xs, orders)
            terms = s.coeffs[first[:, None] + np.arange(p + 1)] * vals.transpose(0, 2, 1)
            want = np.sum(terms, axis=2)
            got = eval_spline_many(s, xs, orders)
            if p <= 6:
                assert np.array_equal(got, want), k
            else:
                bound = 2 * p * eps * np.sum(np.abs(terms), axis=2)
                assert np.all(np.abs(got - want) <= bound), k


def test_basis_table_rejects_outside_points():
    space = make_space(2, 1, Breakpoints.uniform(2, 1.0, 2.0))
    with pytest.raises(ValueError, match=r"x=0.5 outside \[1.0, 2.0\]"):
        _basis_table(space, [1.5, 0.5], (0,))


def test_basis_table_rejects_negative_order():
    space = make_space(2, 1, Breakpoints.uniform(2))
    with pytest.raises(ValueError, match="deriv >= 0"):
        _basis_table(space, [0.5], (0, -1))
    s = Spline(space, np.zeros(space.dim))
    with pytest.raises(ValueError) as err:
        eval_spline_many(s, [0.5], -1)
    assert str(err.value) == "requires deriv >= 0: got -1"


def test_one_point_evaluation_matches_the_point_in_a_batch():
    """A spline value at x does not depend on the other points of the call."""
    space = make_space(7, 6, Breakpoints.uniform(4))
    s = Spline(space, np.random.default_rng(0).standard_normal(space.dim))
    for x in (0.1, 0.3, 0.55):
        assert eval_spline_many(s, [x])[0] == eval_spline_many(s, [x, 0.5])[0], x


def test_unit_spline_everywhere(rng):
    space = random_space(rng)
    ones = Spline(space, np.ones(space.dim))
    xs = rng.uniform(0, 1, 200)
    np.testing.assert_allclose(eval_spline_many(ones, xs), 1.0, atol=1e-13)


def test_linear_spline_derivative():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    s = Spline(space, [0.0, 1.0])
    assert float(eval_spline_many(s, 0.7)) == pytest.approx(0.7)
    assert float(eval_spline_many(s, 0.7, deriv=1)) == pytest.approx(1.0)


def test_eval_matches_local_horner(rng):
    """Per-element monomial interpolation reproduces the spline evaluation."""
    space = make_space(3, 1, random_breakpoints(rng, 3))
    s = random_spline(rng, space)
    pts = space.breakpoints.points
    for el in range(space.breakpoints.points.size - 1):
        x0, x1 = pts[el], pts[el + 1]
        sample = np.linspace(x0 + 1e-9, x1 - 1e-9, space.degree + 1)
        coeffs = np.polyfit(sample, eval_spline_many(s, sample), space.degree)
        for x in rng.uniform(x0 + 1e-9, x1 - 1e-9, 10):
            assert float(eval_spline_many(s, float(x))) == pytest.approx(
                float(np.polyval(coeffs, x)), rel=1e-9, abs=1e-9
            )


def _left_limit(s, x, d):
    """s^(d) at x as the limit from below: the value that eval_spline_many,
    right-continuous, gives at y = a + b - x for the mirror image
    s(a + b - y), whose knots are a + b - t reversed and whose coefficients
    are those of s reversed, times (-1)^d."""
    (a, b), p, k = s.space.interval, s.space.degree, s.space.smoothness
    mirror = make_space(p, k, Breakpoints((a + b) - s.space.breakpoints.points[::-1]))
    return (-1) ** d * float(eval_spline_many(Spline(mirror, s.coeffs[::-1]), (a + b) - x, d))


def test_continuity_across_breakpoints(rng):
    for _ in range(10):
        p = int(rng.integers(1, 6))
        k = int(rng.integers(0, p))
        space = make_space(p, k, random_breakpoints(rng, 3))
        s = random_spline(rng, space)
        scale = max(1.0, np.max(np.abs(s.coeffs)))
        for x in space.breakpoints.points[1:-1]:
            for d in range(k + 1):
                left = _left_limit(s, float(x), d)
                right = float(eval_spline_many(s, float(x), d))
                assert abs(left - right) <= 1e-11 * scale * max(
                    1.0, abs(left)
                ), (p, k, d)


def test_smoothness_break_at_order_k_plus_one(rng):
    space = make_space(2, 0, Breakpoints(np.array([0.0, 0.4, 1.0])))
    s = random_spline(rng, space)
    x = 0.4
    left = _left_limit(s, x, 1)
    right = float(eval_spline_many(s, x, 1))
    assert abs(left - right) > 1e-8  # generic splines kink at order k+1


# ---------------------------------------------------------------------------
# derivative and antiderivative operators
# ---------------------------------------------------------------------------


def test_derive_linear_and_constant():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    d = derive(Spline(space, [0.0, 1.0]))
    assert d.space.degree == 0
    np.testing.assert_allclose(d.coeffs, [1.0])

    sp2 = make_space(2, 1, Breakpoints(np.array([0.0, 0.5, 1.0])))
    z = derive(Spline(sp2, np.ones(sp2.dim)))
    np.testing.assert_allclose(z.coeffs, 0.0, atol=1e-14)


def test_derive_requires_smoothness():
    sp = make_space(2, -1, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        derive(Spline(sp, np.zeros(sp.dim)))
    sp0 = make_space(0, -1, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        derive(Spline(sp0, np.zeros(1)))


def test_derive_consistent_with_pointwise(rng):
    space = make_space(3, 2, random_breakpoints(rng, 4))
    s = random_spline(rng, space)
    ds = derive(s)
    xs = rng.uniform(0, 1, 100)
    np.testing.assert_allclose(
        eval_spline_many(ds, xs), eval_spline_many(s, xs, deriv=1), rtol=1e-10, atol=1e-10
    )


def test_integrate_constant_gives_identity():
    space = make_space(0, -1, Breakpoints(np.array([0.0, 1.0])))
    ks = integrate_from_left(Spline(space, [1.0]))
    np.testing.assert_allclose(ks.coeffs, [0.0, 1.0])
    zero = integrate_from_left(Spline(space, [0.0]))
    np.testing.assert_allclose(zero.coeffs, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_derive_after_integrate_is_identity(seed):
    r = np.random.default_rng(seed)
    space = random_space(r, p_max=5)
    s = random_spline(r, space)
    back = derive(integrate_from_left(s))
    scale = max(1.0, float(np.max(np.abs(s.coeffs))))
    assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-12 * scale


def test_integral_vanishes_at_left(rng):
    space = random_space(rng, p_max=4)
    v = integrate_from_left(random_spline(rng, space))
    assert float(eval_spline_many(v, v.space.breakpoints.a)) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# embedding and polynomial conversion
# ---------------------------------------------------------------------------


def test_constant_has_unit_coefficients_in_any_space(rng):
    for _ in range(5):
        space = random_space(rng, p_max=4)
        s = poly_to_spline([1.0], space)
        np.testing.assert_allclose(s.coeffs, 1.0, atol=1e-13)


def test_embed_constant_is_all_ones(rng):
    xi = random_breakpoints(rng, 2)
    src = make_space(1, 0, xi)
    tgt = make_space(3, 0, xi)
    e = embed(Spline(src, np.ones(src.dim)), tgt)
    np.testing.assert_allclose(e.coeffs, 1.0, atol=1e-13)


def test_embed_linear_gives_greville():
    src = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    tgt = make_space(3, 2, Breakpoints(np.array([0.0, 1.0])))
    e = embed(Spline(src, [0.0, 1.0]), tgt)
    np.testing.assert_allclose(e.coeffs, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-14)


def test_embed_pointwise_match(rng):
    xi = random_breakpoints(rng, 3)
    src = make_space(2, 1, xi)
    tgt = make_space(3, 1, xi)
    s = random_spline(rng, src)
    e = embed(s, tgt)
    xs = rng.uniform(0, 1, 50)
    scale = max(1.0, float(np.max(np.abs(eval_spline_many(s, xs)))))
    assert np.max(np.abs(eval_spline_many(e, xs) - eval_spline_many(s, xs))) <= 1e-12 * scale


def test_embed_ten_point_per_element_tolerance(rng):
    xi = random_breakpoints(rng, 2)
    src = make_space(1, 0, xi)
    tgt = make_space(4, 0, xi)
    s = random_spline(rng, src)
    e = embed(s, tgt)
    pts = xi.points
    for el in range(xi.points.size - 1):
        xs = np.linspace(pts[el] + 1e-12, pts[el + 1] - 1e-12, 10)
        diff = np.abs(eval_spline_many(e, xs) - eval_spline_many(s, xs))
        assert np.max(diff) <= 1e-12 * max(1.0, np.max(np.abs(eval_spline_many(s, xs))))


def test_embed_rejects_non_superspace():
    xi = Breakpoints(np.array([0.0, 0.5, 1.0]))
    src = make_space(2, 0, xi)
    tgt = make_space(3, 2, xi)  # smoother than the source: not a superspace
    with pytest.raises(ValueError):
        embed(Spline(src, np.zeros(src.dim)), tgt)
    other = make_space(2, 0, Breakpoints(np.array([0.0, 0.4, 1.0])))
    with pytest.raises(ValueError):
        embed(Spline(src, np.zeros(src.dim)), other)


def test_poly_roundtrip(rng):
    xi = random_breakpoints(rng, 2)
    space = make_space(4, 1, xi)
    pol = rng.normal(size=5)
    s = poly_to_spline(pol, space)
    xs = rng.uniform(xi.a, xi.b, 40)
    np.testing.assert_allclose(
        eval_spline_many(s, xs), npp.polyval(xs - xi.a, pol), rtol=1e-11, atol=1e-11
    )
    back = first_element_poly(s)
    np.testing.assert_allclose(back, pol, rtol=1e-9, atol=1e-10)


# one element, away from 0, far from 0, graded
ROUND_TRIP_MESHES = {
    "unit": Breakpoints(np.array([0.0, 1.0])),
    "shifted": Breakpoints.uniform(4, 1.0, 3.0),
    "far": Breakpoints.uniform(8, 1e6, 1e6 + 1.0),
    "graded": Breakpoints.uniform(16, grading=3.0),
}


@pytest.mark.parametrize("mesh", sorted(ROUND_TRIP_MESHES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.integers(0, 8))
def test_poly_round_trip_at_the_edges(mesh, seed, p):
    """The first-element polynomial of poly_to_spline(c, S) gives c back, compared by values
    on the Gauss points of the first element."""
    r = np.random.default_rng(seed)
    xi = ROUND_TRIP_MESHES[mesh]
    space = make_space(p, int(r.integers(-1, p)), xi)
    c = r.normal(size=int(r.integers(1, p + 2)))
    back = first_element_poly(poly_to_spline(c, space))
    x0, x1 = xi.points[:2]
    t = 0.5 * (x1 - x0) * (np.polynomial.legendre.leggauss(p + 1)[0] + 1.0) + x0 - xi.a
    want = npp.polyval(t, c)
    assert np.max(np.abs(npp.polyval(t, back) - want)) <= 1e-10 * np.max(np.abs(want))


def _dual_coefficients_full(space, derivs_at):
    """The dual-functional formula with the whole elementary-symmetric table
    and every order 0..p, vanishing or not."""
    from math import factorial

    p, t = space.degree, space.knots
    rows = np.arange(space.dim)[:, None] + np.arange(p + 1)
    j = rows[:, 0] + np.argmax(t[rows + 1] - t[rows], axis=1)
    taus = 0.5 * (t[j] + t[j + 1])
    e = np.zeros((space.dim, p + 1))
    e[:, 0] = 1.0
    for v in (t[rows[:, 1:]] - taus[:, None]).T:
        e[:, 1:] = e[:, 1:] + v[:, None] * e[:, :-1]
    coeffs = np.zeros(space.dim)
    for m in range(p + 1):
        coeffs += e[:, m] * derivs_at(taus, [m])[0] * (factorial(p - m) / factorial(p))
    return coeffs


def test_dual_coefficients_skip_vanishing_orders_exactly(rng):
    """Stopping at the source degree drops exact zeros, both in the orders
    asked for and in the elementary-symmetric table, and embed's one
    multi-order evaluation matches one evaluation per order: bit-identical."""
    for p in (1, 3, 5, 8):
        xi = random_breakpoints(rng, 4)
        space = make_space(p, p - 1, xi)
        for deg in range(min(p, 3)):
            pol = rng.normal(size=deg + 1)
            per_order = lambda x, orders: [
                npp.polyval(x - xi.a, npp.polyder(pol, m)) for m in orders
            ]
            full = _dual_coefficients([space], per_order, p)
            assert np.array_equal(poly_to_spline(pol, space).coeffs, full)
            assert np.array_equal(_dual_coefficients_full(space, per_order), full)
        s = random_spline(rng, make_space(p - 1, p - 2, xi))
        target = make_space(p, p - 2, xi)
        per_order = lambda x, orders: [eval_spline_many(s, x, m) for m in orders]
        full = _dual_coefficients([target], per_order, p)
        assert np.array_equal(embed(s, target).coeffs, full)
        assert np.array_equal(_dual_coefficients_full(target, per_order), full)


def test_poly_to_spline_rejects_high_degree():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        poly_to_spline([0.0, 0.0, 1.0], space)


def test_poly_to_spline_rejects_no_coefficients():
    space = make_space(1, 0, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="^requires at least one polynomial coefficient: got none$"):
        poly_to_spline(np.array([]), space)


def test_spline_coefficient_length_checked():
    space = make_space(2, 1, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        Spline(space, np.zeros(5))


def test_spline_arithmetic_stays_in_one_space():
    space = make_space(2, 1, Breakpoints(np.array([0.0, 0.5, 1.0])))
    s, t = Spline(space, [1.0, 2.0, 3.0, 4.0]), Spline(space, [0.5, 0.0, -1.0, 2.0])
    assert np.array_equal((s - t).coeffs, [0.5, 2.0, 4.0, 2.0])
    other = make_space(2, 1, Breakpoints(np.array([0.0, 0.25, 1.0])))
    with pytest.raises(ValueError, match="splines live in different spaces"):
        s - Spline(other, t.coeffs)
