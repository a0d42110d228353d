import math

import numpy as np
import pytest

from ritzspline.bounds import (
    BoundQuery,
    broken_error_coefficient,
    difference_coefficient,
    error_coefficient,
    inverse_constant,
    projection_constant,
    projection_constant_upper,
    schultz_constant,
    schultz_log_gap,
)
from ritzspline.quadrature import gauss_rule

from conftest import spline_norm


# ---------------------------------------------------------------------------
# projection constant
# ---------------------------------------------------------------------------


def test_maximal_smoothness_values():
    assert projection_constant(3, 2, 2) == pytest.approx(1 / math.pi**2, rel=1e-12)
    assert projection_constant(3, 2, 2) == pytest.approx(0.1013211836, abs=1e-10)


def test_zeroth_order_is_one():
    for p in range(0, 12):
        for k in range(-1, p):
            assert projection_constant(p, k, 0) == 1.0


def test_low_smoothness_branch():
    assert projection_constant(2, 0, 1) == pytest.approx(
        1 / (2 * math.sqrt(6)), rel=1e-12
    )
    assert projection_constant(2, 0, 1) == pytest.approx(0.2041241452, abs=1e-10)


def test_factorial_branch():
    # k < r-2 engages the factorial-ratio branch
    val = projection_constant(4, -1, 5)
    expect = 0.5**5 * math.sqrt(math.factorial(0) / math.factorial(10))
    assert val == pytest.approx(expect, rel=1e-12)


def test_constant_preconditions():
    with pytest.raises(ValueError):
        projection_constant(1, 0, 3)  # p < r-1
    with pytest.raises(ValueError):
        projection_constant(2, 2, 1)  # k > p-1


def test_large_parameters_do_not_overflow():
    v = projection_constant(20, -1, 21)
    assert 0 < v < 1e-6 and math.isfinite(v)


# ---------------------------------------------------------------------------
# simplified upper bound
# ---------------------------------------------------------------------------


def test_simplified_examples():
    assert projection_constant_upper(2, 0, 1) == pytest.approx(0.25)
    assert projection_constant_upper(2, 0, 1) >= projection_constant(2, 0, 1)
    assert projection_constant_upper(5, 0, 5) == pytest.approx((math.e / 20) ** 5)
    assert projection_constant_upper(4, 1, 0) == 1.0


def test_simplified_rejects_maximal_smoothness():
    with pytest.raises(ValueError):
        projection_constant_upper(3, 2, 1)
    with pytest.raises(ValueError, match="requires r >= 0"):
        projection_constant_upper(3, 0, -1)


def test_simplified_dominates_everywhere():
    for p in range(0, 21):
        for k in range(-1, p - 1):
            for r in range(0, p + 2):
                assert (
                    projection_constant_upper(p, k, r)
                    >= projection_constant(p, k, r) - 1e-15
                ), (p, k, r)


# ---------------------------------------------------------------------------
# inverse inequality
# ---------------------------------------------------------------------------


def test_inverse_constant_values():
    assert inverse_constant(0) == 0.0
    assert inverse_constant(1) == pytest.approx(math.sqrt(12), rel=1e-14)
    assert inverse_constant(3) == pytest.approx(math.sqrt(180), rel=1e-14)


def test_inverse_inequality_on_random_polynomials(rng):
    """500 random polynomials on random intervals never violate the bound."""
    violations = 0
    for _ in range(500):
        p = int(rng.integers(0, 9))
        coeffs = rng.normal(size=p + 1)
        a = float(rng.uniform(-3, 3))
        b = a + float(rng.uniform(0.1, 5))
        rule = gauss_rule(p + 2)
        xs = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
        ws = 0.5 * (b - a) * rule.weights
        vals = np.polyval(coeffs, xs)
        dvals = np.polyval(np.polyder(coeffs) if p else np.zeros(1), xs)
        norm = math.sqrt(float(np.sum(vals**2 * ws)))
        dnorm = math.sqrt(float(np.sum(dvals**2 * ws)))
        if dnorm > inverse_constant(p) / (b - a) * norm * (1 + 1e-12):
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# error coefficients
# ---------------------------------------------------------------------------


def test_error_coefficient_maximal_smoothness_collapses():
    for p, q, l, r in [(3, 2, 0, 4), (4, 2, 1, 5), (2, 1, 0, 3)]:
        query = BoundQuery(p=p, k=p - 1, q=q, l=l, r=r, h=0.25)
        assert error_coefficient(query) == pytest.approx(
            (0.25 / math.pi) ** (r - l), rel=1e-12
        )


def test_error_coefficient_no_decay_at_top_order():
    query = BoundQuery(p=3, k=2, q=2, l=2, r=2, h=0.125)
    assert error_coefficient(query) == pytest.approx(1.0)


def test_error_coefficient_frozen_value():
    query = BoundQuery(p=3, k=2, q=2, l=0, r=4, h=1 / 8)
    assert error_coefficient(query) == pytest.approx((1 / (8 * math.pi)) ** 4, rel=1e-12)


@pytest.mark.parametrize("call,message", [
    (lambda: error_coefficient(BoundQuery(p=3, k=2, q=2, l=0, r=4, h=1e100)),
     "requires h^4 inside the double range: got h=1e+100"),
    (lambda: error_coefficient(BoundQuery(p=3, k=2, q=2, l=0, r=4, h=1e-100)),
     "requires h^4 inside the double range: got h=1e-100"),
    (lambda: broken_error_coefficient(BoundQuery(p=3, k=2, q=2, l=4, r=4, h=0.5, h_min=1e-300)),
     "requires (h/h_min)^2 inside the double range: got h/h_min=5e+299"),
    (lambda: difference_coefficient(BoundQuery(p=3, k=2, q=2, l=0, r=4, h=1e100)),
     "requires h^4 inside the double range: got h=1e+100"),
    (lambda: difference_coefficient(BoundQuery(p=5, k=4, q=3, l=2, r=4, h=0.5, length=1e200)),
     "requires length^2 inside the double range: got length=1e+200"),
    (lambda: inverse_constant(10**89),
     f"requires p(p+1)(p+2)(p+3)/2 inside the double range: got p={10**89}"),
], ids=["h-overflows", "h-underflows", "mesh-ratio", "difference-h", "length", "inverse-p"])
def test_powers_outside_the_double_range_are_named(call, message):
    """A power that double precision cannot hold names its parameter, in
    place of an OverflowError, an infinity, a zero bound or a division by
    zero."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


HUGE = int("9" * 401)  # beyond a float


@pytest.mark.parametrize("call,message", [
    (lambda: broken_error_coefficient(BoundQuery(p=300, k=299, q=2, l=60, r=300, h=0.5, h_min=0.5)),
     "requires the broken coefficient at l=60 inside the double range: got inf"),
    (lambda: difference_coefficient(BoundQuery(p=3, k=2, q=2, l=1, r=4, h=0.5, length=1e-320)),
     "requires the difference coefficient at l=1 inside the double range: got inf"),
    (lambda: projection_constant(400, 0, 300),
     "requires c at p=400, k=0, r=300 inside the double range: got 0"),
    (lambda: error_coefficient(BoundQuery(p=400, k=0, q=0, l=0, r=300, h=0.5)),
     "requires the error coefficient at l=0 inside the double range: got 0"),
    (lambda: projection_constant(HUGE, 0, 2),
     f"requires (p-k)(p-k+1) inside the double range: got p={HUGE}, k=0"),
    (lambda: projection_constant(HUGE, HUGE - 1, HUGE),
     f"requires c at p={HUGE}, k={HUGE - 1}, r={HUGE} inside the double range: got 0"),
], ids=["broken-product", "difference-division", "constant-underflows", "error-underflows",
        "huge-p", "huge-exponent"])
def test_values_outside_the_double_range_are_named(call, message):
    """A constant or coefficient that double precision does not hold names
    itself and its row, in place of an inf, a nan, a 0 or an
    OverflowError."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_broken_coefficient_keeps_a_sum_whose_term_underflows():
    """Only the coefficient is checked: at p = 300, l = 3 its terms
    c_{297,-1,297} and c_{297,-1,298} underflow, c_{298,297,298} d_595 does
    not."""
    with pytest.raises(ValueError, match="got 0"):
        projection_constant(297, -1, 298)
    query = BoundQuery(p=300, k=299, q=2, l=3, r=300, h=0.5, h_min=0.5)
    assert broken_error_coefficient(query) == pytest.approx(
        math.pi**-298 * inverse_constant(595) * 0.5**297, rel=1e-12)


def test_error_coefficient_preconditions():
    with pytest.raises(ValueError, match="l <= q"):
        error_coefficient(BoundQuery(p=3, k=2, q=1, l=2, r=3, h=0.5))
    with pytest.raises(ValueError, match="r-1"):
        error_coefficient(BoundQuery(p=2, k=1, q=1, l=0, r=4, h=0.5))
    with pytest.raises(ValueError, match="2q-l-1"):
        error_coefficient(BoundQuery(p=2, k=1, q=2, l=0, r=2, h=0.5))


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(p=3, k=3, q=1, l=0, r=2, h=0.5)
    with pytest.raises(ValueError):
        BoundQuery(p=3, k=1, q=3, l=0, r=4, h=0.5)
    with pytest.raises(ValueError):
        BoundQuery(p=3, k=2, q=2, l=0, r=1, h=0.5)
    with pytest.raises(ValueError):
        BoundQuery(p=3, k=2, q=1, l=0, r=2, h=-1.0)
    with pytest.raises(ValueError, match="requires l >= 0"):
        BoundQuery(p=3, k=2, q=1, l=-1, r=2, h=0.5)


# ---------------------------------------------------------------------------
# broken-norm coefficient for derivative orders above the projector order
# ---------------------------------------------------------------------------


def test_broken_coefficient_uniform_example():
    q = BoundQuery(p=1, k=0, q=0, l=1, r=2, h=0.25, h_min=0.25)
    expect = (
        projection_constant(1, -1, 1)
        + (projection_constant(1, -1, 2) + projection_constant(1, 0, 2))
        * inverse_constant(3)
    ) * 0.25
    assert broken_error_coefficient(q) == pytest.approx(expect, rel=1e-12)


def test_broken_coefficient_mesh_ratio_scaling():
    base = BoundQuery(p=1, k=0, q=0, l=1, r=2, h=0.25, h_min=0.25)
    double = BoundQuery(p=1, k=0, q=0, l=1, r=2, h=0.25, h_min=0.125)
    first = projection_constant(1, -1, 1) * 0.25
    grown = broken_error_coefficient(double) - first
    flat = broken_error_coefficient(base) - first
    assert grown == pytest.approx(2 * flat, rel=1e-12)


def test_broken_coefficient_rejects_l_at_or_below_q():
    with pytest.raises(ValueError, match="q < l"):
        broken_error_coefficient(BoundQuery(p=3, k=2, q=1, l=1, r=3, h=0.5, h_min=0.5))


def test_broken_coefficient_requires_degree():
    with pytest.raises(ValueError, match="requires p >= r-1: got p=1, r=3"):
        broken_error_coefficient(BoundQuery(p=1, k=0, q=0, l=1, r=3, h=0.5, h_min=0.5))


def test_broken_coefficient_requires_h_min():
    with pytest.raises(ValueError, match="h_min"):
        broken_error_coefficient(BoundQuery(p=3, k=2, q=1, l=2, r=3, h=0.5))


# ---------------------------------------------------------------------------
# projector-difference coefficient
# ---------------------------------------------------------------------------


def test_difference_zero_from_projector_order():
    for l in (2, 3, 5):
        assert difference_coefficient(BoundQuery(p=4, k=3, q=2, l=l, r=5, h=0.5)) == 0.0


def test_difference_base_value():
    query = BoundQuery(p=4, k=3, q=2, l=0, r=5, h=0.5)
    expect = (
        projection_constant(2, 1, 2) * projection_constant(2, 1, 3) * 0.5**5
    )
    assert difference_coefficient(query) == pytest.approx(expect, rel=1e-12)


def test_difference_first_derivative_multiplier():
    q0 = BoundQuery(p=4, k=3, q=2, l=0, r=5, h=0.5, length=1.0)
    q1 = BoundQuery(p=4, k=3, q=2, l=1, r=5, h=0.5, length=1.0)
    ratio = difference_coefficient(q1) / difference_coefficient(q0)
    assert ratio == pytest.approx(inverse_constant(1), rel=1e-12)
    with pytest.raises(ValueError, match="requires the interval length for l >= 1"):
        difference_coefficient(BoundQuery(p=4, k=3, q=2, l=1, r=5, h=0.5))


def test_difference_requires_degree():
    with pytest.raises(ValueError, match="2q-1"):
        difference_coefficient(BoundQuery(p=2, k=1, q=2, l=0, r=3, h=0.5, length=1.0))
    with pytest.raises(ValueError, match="requires p >= r-1: got p=3, r=5"):
        difference_coefficient(BoundQuery(p=3, k=2, q=1, l=0, r=5, h=0.5, length=1.0))


# ---------------------------------------------------------------------------
# knot-interpolation constants and the comparison gap
# ---------------------------------------------------------------------------


def test_schultz_top_order_is_one():
    for q in range(1, 6):
        for k in range(q - 1, 2 * q - 1):
            assert schultz_constant(q, k, q) == 1.0


def test_schultz_low_branch():
    assert schultz_constant(1, 0, 0) == pytest.approx(1 / math.pi, rel=1e-14)


def test_schultz_middle_branch():
    # middle branch: (k+2-q)! / ((k+l+2-2q)! pi^(q-l)) with q=2, k=2, l=1
    assert schultz_constant(2, 2, 1) == pytest.approx(2 / math.pi, rel=1e-14)
    # third branch engages when l <= 2q-k-2: q=2, k=1, l=1
    assert schultz_constant(2, 1, 1) == pytest.approx(1 / math.pi, rel=1e-14)


def test_schultz_range_checks():
    with pytest.raises(ValueError):
        schultz_constant(0, 0, 0)
    with pytest.raises(ValueError):
        schultz_constant(2, 0, 0)
    with pytest.raises(ValueError):
        schultz_constant(2, 3, 0)
    with pytest.raises(ValueError):
        schultz_constant(2, 2, 3)


def test_gap_nonnegative_over_full_range():
    for q in range(1, 9):
        for k in range(q - 1, 2 * q - 1):
            assert schultz_log_gap(q, k) >= -1e-12, (q, k)


def _log_factorial(n):
    return math.fsum(math.log(i) for i in range(2, n + 1))


def _reference_log_gap(q, k):
    """The gap from log-factorial sums: log((k+2-q)! / pi^q) minus the log of
    c_{q-1, k-q, q}, written out branch by branch."""
    p, kk, r = q - 1, k - q, q
    log_schultz = _log_factorial(k + 2 - q) - q * math.log(math.pi)
    if kk == p - 1:
        return log_schultz + r * math.log(math.pi)
    log_base = -0.5 * math.log((p - kk) * (p - kk + 1))
    if kk >= r - 2:
        return log_schultz - r * (math.log(0.5) + log_base)
    ratio = _log_factorial(p + 1 - r) - _log_factorial(p - 1 + r - 2 * kk)
    return log_schultz - (r * math.log(0.5) + (kk + 1) * log_base + 0.5 * ratio)


def test_gap_matches_log_factorial_sums_and_stays_nonnegative_to_q_200():
    """Finite where c_{q-1,k-q,q} underflows (from (q, k) = (89, 88)) or
    (k+2-q)! overflows a float, accurate where it is subnormal (88, 87)."""
    for q in range(1, 201):
        for k in range(q - 1, 2 * q - 1):
            gap = schultz_log_gap(q, k)
            assert gap == pytest.approx(_reference_log_gap(q, k), rel=0, abs=1e-9), (q, k)
            assert gap >= 0.0, (q, k)


def test_gap_smallest_case_is_zero():
    # q=1, k=0: both constants equal 1/pi, so the gap vanishes exactly
    assert schultz_log_gap(1, 0) == pytest.approx(0.0, abs=1e-14)


def test_gap_grows_with_order_at_fixed_offset():
    for offset in (-1, 0, 1):
        gaps = [
            schultz_log_gap(q, q + offset)
            for q in range(1, 9)
            if q - 1 <= q + offset <= 2 * q - 2
        ]
        assert all(a < b for a, b in zip(gaps, gaps[1:])), offset


# ---------------------------------------------------------------------------
# measured projector errors against the coefficients (small sweep)
# ---------------------------------------------------------------------------


def test_measured_errors_within_bounds_small_sweep():
    from ritzspline.analysis import error_norm, function_seminorm
    from ritzspline.functions import builtin
    from ritzspline.mesh import Breakpoints, make_space
    from ritzspline.projectors import q_project

    u = builtin("sin4x")
    for p in (2, 3):
        r = p + 1
        for k in range(-1, p):
            for q in range(0, min(k + 1, 3) + 1):
                for nel in (2, 4):
                    xi = Breakpoints.uniform(nel)
                    space = make_space(p, k, xi)
                    s = q_project(space, q, u)
                    semi = function_seminorm(u, r, xi)
                    for l in range(q + 1):
                        if p < max(r - 1, 2 * q - l - 1):
                            continue
                        coeff = error_coefficient(
                            BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h)
                        )
                        assert error_norm(u, s, l) <= coeff * semi * (1 + 1e-9)


def test_measured_errors_within_bounds_all_sobolev_orders():
    """Lower Sobolev orders r < p+1 and the rational test function."""
    from ritzspline.analysis import error_norm, function_seminorm
    from ritzspline.functions import builtin
    from ritzspline.mesh import Breakpoints, make_space
    from ritzspline.projectors import q_project

    for name in ("runge", "sin4x"):
        u = builtin(name)
        for p in (2, 3):
            for k in (p - 1, 0):
                for q in range(0, min(k + 1, 2) + 1):
                    xi = Breakpoints.uniform(3)
                    space = make_space(p, k, xi)
                    s = q_project(space, q, u)
                    for r in range(max(q, 1), p + 2):
                        semi = function_seminorm(u, r, xi)
                        for l in range(q + 1):
                            if p < max(r - 1, 2 * q - l - 1):
                                continue
                            coeff = error_coefficient(
                                BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h)
                            )
                            assert error_norm(u, s, l) <= coeff * semi * (1 + 1e-9), (
                                name, p, k, q, l, r,
                            )


def test_measured_projector_difference_within_proven_bound():
    from ritzspline.analysis import function_seminorm
    from ritzspline.functions import builtin
    from ritzspline.mesh import Breakpoints, make_space
    from ritzspline.projectors import q_project, ritz_project

    u = builtin("sin4x")
    for p, q in ((3, 2), (4, 2), (5, 3)):
        xi = Breakpoints.uniform(4)
        space = make_space(p, p - 1, xi)
        diff = ritz_project(space, q, u) - q_project(space, q, u)
        r = p + 1
        semi = function_seminorm(u, r, xi)
        for l in range(q):
            coeff = difference_coefficient(
                BoundQuery(p=p, k=p - 1, q=q, l=l, r=r, h=xi.h, length=1.0)
            )
            assert spline_norm(diff, l) <= coeff * semi * (1 + 1e-9), (p, q, l)
        # beyond the projector order the difference vanishes identically
        assert spline_norm(diff, q) <= 1e-9 * max(1.0, spline_norm(diff, 0))


# graded meshes as in the bound sweeps: coarse cells at b (0.5) or at a (2, 3)
GRADED = ((6, 0.5), (8, 2.0), (16, 3.0))


def _q_sweep(meshes):
    """(u, xi, p, k, q, r, Q u) over sin4x and runge, p = 2..5, every k and
    q <= min(k + 1, 3), with r = p + 1.

    Both functions are smooth and outside every spline space, so the bounds
    are positive.  A u inside the space (x6 at p >= 6) makes them zero and
    leaves the measured error at roundoff; that case needs a derived
    roundoff floor and is not swept here.
    """
    from ritzspline.functions import builtin
    from ritzspline.mesh import Breakpoints, make_space
    from ritzspline.projectors import q_project

    for name in ("sin4x", "runge"):
        u = builtin(name)
        for elements, grading in meshes:
            xi = Breakpoints.uniform(elements, grading=grading)
            for p in range(2, 6):
                for k in range(-1, p):
                    for q in range(min(k + 1, 3) + 1):
                        space = make_space(p, k, xi)
                        yield u, xi, p, k, q, p + 1, q_project(space, q, u)


def test_measured_errors_within_bounds_on_graded_meshes():
    from ritzspline.analysis import error_norm, function_seminorm

    for u, xi, p, k, q, r, s in _q_sweep(GRADED):
        semi = function_seminorm(u, r, xi)
        for l in range(q + 1):
            if p < max(r - 1, 2 * q - l - 1):
                continue
            coeff = error_coefficient(BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h))
            assert error_norm(u, s, l) <= coeff * semi * (1 + 1e-9), (
                u.description, xi.points.size - 1, p, k, q, l,
            )


def test_measured_broken_errors_within_bounds():
    """The broken norms q < l <= r, on uniform and graded meshes."""
    from ritzspline.analysis import error_norm, function_seminorm

    for u, xi, p, k, q, r, s in _q_sweep(((4, 1.0), (8, 1.0), *GRADED)):
        semi = function_seminorm(u, r, xi)
        for l in range(q + 1, r + 1):
            coeff = broken_error_coefficient(
                BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h, h_min=float(np.min(np.diff(xi.points))))
            )
            assert error_norm(u, s, l) <= coeff * semi * (1 + 1e-9), (
                u.description, xi.points.size - 1, p, k, q, l,
            )


def test_measured_projector_difference_within_bound_on_graded_meshes():
    """|d^l (Ru - Qu)| against difference_coefficient on the graded meshes,
    l < q, wherever the coefficient is stated (p >= max(r - 1, 2q - 1))."""
    from ritzspline.analysis import function_seminorm
    from ritzspline.projectors import ritz_project

    checked = 0
    for u, xi, p, k, q, r, qs in _q_sweep(GRADED):
        if q == 0 or p < max(r - 1, 2 * q - 1):
            continue
        diff = ritz_project(qs.space, q, u) - qs
        semi = function_seminorm(u, r, xi)
        for l in range(q):
            coeff = difference_coefficient(
                BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h, length=xi.b - xi.a)
            )
            assert spline_norm(diff, l) <= coeff * semi * (1 + 1e-9), (
                u.description, xi.points.size - 1, p, k, q, l,
            )
            checked += 1
    assert checked == 246
