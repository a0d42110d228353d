import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.analysis import apply_projector, error_norm, function_seminorm
from ritzspline.functions import builtin, resolve_function
from ritzspline.mesh import Breakpoints, make_space
from ritzspline.quadrature import (
    ENV_ORDER,
    MAX_ORDER,
    SMOOTH_MARGIN,
    SMOOTH_WIDTH,
    default_order,
    gauss_rule,
    gram_matrix,
    inner_product,
    load_vector,
    mesh_points,
    resolve_order,
)

from conftest import random_breakpoints


def test_one_point_rule():
    r = gauss_rule(1)
    np.testing.assert_allclose(r.nodes, [0.0])
    np.testing.assert_allclose(r.weights, [2.0])


def test_two_point_rule_nodes():
    r = gauss_rule(2)
    np.testing.assert_allclose(
        r.nodes, [-0.5773502691896258, 0.5773502691896258], atol=1e-15
    )
    np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 64])
def test_rule_invariants(n):
    r = gauss_rule(n)
    assert abs(r.weights.sum() - 2.0) < 1e-14
    np.testing.assert_allclose(r.nodes, -r.nodes[::-1], atol=1e-14)
    assert np.all(r.weights > 0)
    assert np.all((-1 < r.nodes) & (r.nodes < 1))
    # exact for monomials up to degree 2n-1
    for d in range(2 * n):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(np.sum(r.weights * r.nodes**d) - exact) < 1e-13, d


@pytest.mark.parametrize("n", [2, 7, 20, 50, 64])
def test_rule_matches_numpy(n):
    r = gauss_rule(n)
    xs, ws = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(r.nodes, xs, atol=5e-15)
    np.testing.assert_allclose(r.weights, ws, atol=5e-15)


def test_rule_order_bounds():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(65)


def test_odd_power_integrates_to_zero():
    r = gauss_rule(5)
    assert abs(np.sum(r.weights * r.nodes**9)) < 1e-14


def test_inner_product_examples():
    xi = Breakpoints(np.array([0.0, 1.0]))
    one = lambda x: np.ones_like(x)
    assert inner_product(one, one, xi, 3) == pytest.approx(1.0)
    ident = lambda x: x
    assert inner_product(ident, ident, xi, 2) == pytest.approx(1 / 3, abs=1e-15)
    val = inner_product(lambda x: np.sin(4 * x), one, xi, 20)
    assert val == pytest.approx((1 - np.cos(4.0)) / 4, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), deg=st.integers(0, 6))
def test_exactness_for_piecewise_polynomials(seed, deg):
    r = np.random.default_rng(seed)
    xi = random_breakpoints(r, 3)
    pts = xi.points
    coeffs = [r.normal(size=deg + 1) for _ in range(xi.num_elements)]

    def f(x):
        out = np.empty_like(x)
        idx = np.clip(np.searchsorted(pts, x, side="right") - 1, 0, xi.num_elements - 1)
        for el in range(xi.num_elements):
            m = idx == el
            out[m] = np.polyval(coeffs[el], x[m])
        return out

    # n = ceil((d+1)/2) points integrate f*1 (degree d) exactly
    n = (deg + 1 + 1) // 2
    approx = inner_product(f, lambda x: np.ones_like(x), xi, n)
    exact = 0.0
    for el in range(xi.num_elements):
        ac = np.polyint(coeffs[el])
        exact += np.polyval(ac, pts[el + 1]) - np.polyval(ac, pts[el])
    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_gram_examples():
    xi = Breakpoints(np.array([0.0, 1.0]))
    g0 = gram_matrix(make_space(0, -1, xi), 0, 4).to_dense()
    np.testing.assert_allclose(g0, [[1.0]], atol=1e-14)
    g1 = gram_matrix(make_space(1, 0, xi), 0, 4).to_dense()
    np.testing.assert_allclose(g1, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14)
    g1d = gram_matrix(make_space(1, 0, xi), 1, 4).to_dense()
    np.testing.assert_allclose(g1d, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)
    kernel = np.linalg.eigvalsh(g1d)
    assert abs(kernel[0]) < 1e-14  # constants


@pytest.mark.parametrize("p", range(0, 11))
def test_mass_matrix_is_spd(p):
    k = p - 1
    space = make_space(p, k, Breakpoints(np.linspace(0.0, 1.0, 33)))
    gram = gram_matrix(space, 0)
    np.linalg.cholesky(gram.to_dense())  # raises if not SPD


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_derivative_gram_rank_deficiency(p, q):
    space = make_space(p, p - 1, Breakpoints(np.linspace(0.0, 1.0, 9)))
    a = gram_matrix(space, q).to_dense()
    w = np.linalg.eigvalsh(a)
    tol = 1e-10 * np.max(np.abs(w))
    assert int(np.sum(np.abs(w) < tol)) == q


def test_banded_solve_and_matvec(rng):
    space = make_space(3, 2, random_breakpoints(rng, 6))
    gram = gram_matrix(space, 0)
    dense = gram.to_dense()
    b = rng.normal(size=space.dim)
    np.testing.assert_allclose(gram.matvec(b), dense @ b, atol=1e-13)
    x = gram.solve_spd(b)
    np.testing.assert_allclose(dense @ x, b, atol=1e-11)


def test_block_matvec_matches_dense(rng):
    space = make_space(4, 3, random_breakpoints(rng, 5))
    stiff = gram_matrix(space, 2)
    block = rng.normal(size=(space.dim, 7))
    np.testing.assert_allclose(
        stiff.matvec(block), stiff.to_dense() @ block, rtol=0, atol=1e-12 * stiff.norm1()
    )
    # each column is exactly the vector product
    for j in range(block.shape[1]):
        assert np.array_equal(stiff.matvec(block)[:, j], stiff.matvec(block[:, j]))


def test_principal_submatrix_is_exact_in_banded_storage(rng):
    # (p, elements): the coarse cases keep at most p functions, so the
    # submatrix is narrower than the band of the full matrix
    for p, nel in ((0, 6), (1, 6), (2, 6), (3, 6), (5, 6), (4, 3), (5, 2), (5, 3), (8, 1)):
        space = make_space(p, p - 1, random_breakpoints(rng, nel))
        for deriv in range(min(p, 2) + 1):
            gram = gram_matrix(space, deriv)
            sub = gram.principal(2, space.dim - 2)
            assert sub.dim == space.dim - 4
            assert sub.bandwidth == min(gram.bandwidth, sub.dim - 1)
            assert np.array_equal(sub.to_dense(), gram.to_dense()[2:-2, 2:-2])
            v = rng.normal(size=sub.dim)
            assert np.array_equal(sub.matvec(v), gram.matvec(np.r_[0, 0, v, 0, 0])[2:-2])
            assert sub.norm1() == pytest.approx(
                float(np.max(np.abs(sub.to_dense()).sum(axis=0))), rel=1e-14
            )


def test_norm1_matches_dense(rng):
    space = make_space(3, 2, random_breakpoints(rng, 4))
    for deriv in (0, 2):
        gram = gram_matrix(space, deriv)
        dense = np.abs(gram.to_dense())
        assert gram.norm1() == pytest.approx(float(np.max(dense.sum(axis=0))), rel=1e-14)


def test_load_vector_sums_to_interval_length(rng):
    space = make_space(3, 2, random_breakpoints(rng, 4))
    lv = load_vector(space, lambda x: np.ones_like(x), 6)
    assert lv.sum() == pytest.approx(1.0, abs=1e-13)


def test_gram_requires_enough_points():
    space = make_space(3, 2, Breakpoints(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        gram_matrix(space, 0, 2)
    with pytest.raises(ValueError):
        gram_matrix(space, 4)


def test_elements_too_narrow_for_double_precision_rejected():
    """An element a few ulps wide: its Gauss points round onto its breakpoints."""
    space = make_space(2, -1, Breakpoints(np.array([1e6, 1e6 + 3e-10, 1e6 + 1.0])))
    with pytest.raises(ValueError, match="Gauss point rounds onto a breakpoint"):
        gram_matrix(space)
    with pytest.raises(ValueError, match="Gauss point rounds onto a breakpoint"):
        load_vector(space, lambda x: x, 6)


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_ORDER, "17")
    assert resolve_order(5) == 17
    monkeypatch.setenv(ENV_ORDER, "99")
    with pytest.raises(ValueError):
        resolve_order(5)
    monkeypatch.delenv(ENV_ORDER)
    assert resolve_order(5) == 5
    assert resolve_order(200) == 64


def test_env_override_below_exact_order_rejected(monkeypatch):
    space = make_space(3, 2, Breakpoints.uniform(4))
    u = builtin("sin4x")
    monkeypatch.setenv(ENV_ORDER, "3")
    for call in (
        lambda: default_order(3),
        lambda: default_order(3, space.breakpoints),
        lambda: gram_matrix(space),
        lambda: apply_projector("ritz", space, 2, u),
    ):
        with pytest.raises(ValueError, match=rf"{ENV_ORDER} must lie in \[4, 64\]: got 3"):
            call()
    monkeypatch.setenv(ENV_ORDER, "4")
    assert default_order(3) == default_order(3, space.breakpoints) == 4


def test_default_order_policy():
    one, two, many = (Breakpoints.uniform(n) for n in (1, 2, 256))
    for p in (0, 3, 20):
        assert default_order(p) == p + 1
        assert default_order(p, many) == p + 1 + SMOOTH_MARGIN
        assert default_order(p, one) == min(max(p + 1 + SMOOTH_MARGIN, SMOOTH_WIDTH), MAX_ORDER)
        assert default_order(p, two) == max(p + 1 + SMOOTH_MARGIN, SMOOTH_WIDTH // 2)
    # the width term follows the widest element, not the element count
    graded = Breakpoints(np.array([0.0, 0.01, 0.02, 1.0]))
    assert default_order(2, graded) == SMOOTH_WIDTH * 98 // 100 + 1


# Cases of the error-versus-order test below; they fix SMOOTH_MARGIN = 5 and
# SMOOTH_WIDTH = 64.  Either one step smaller fails it: SMOOTH_MARGIN = 4
# leaves a gap of 3.8e-10 (runge, p=2, q-projector, 16 elements), and
# SMOOTH_WIDTH = 48 leaves 7.8e-10 (runge, p=8, qtilde, 4 elements).
ORDER_TEST_FUNCTIONS = ("sin4x", "x6", "runge", "exp", "exp(x)*sin(3*x)+x^5/(1+x^2)")
ORDER_TEST_DEGREES = (0, 1, 2, 3, 5, 8, 13, 20)
ORDER_TEST_MESHES = tuple(Breakpoints.uniform(n) for n in (1, 2, 4, 16, 256)) + (
    Breakpoints.uniform(16, grading=3.0),
)


@pytest.mark.parametrize("name", ORDER_TEST_FUNCTIONS)
def test_default_order_matches_max_order_rule(name, monkeypatch):
    """Every projector at the default order agrees with the MAX_ORDER rule.

    The gap is measured on the coefficients, relative to the largest one,
    and must stay below 1e-10.  Double precision alone spreads the
    coefficients by about eps times the condition number of the Gram matrix
    the projector solves with (2.7e11 at p = 20 on one element), so that
    roundoff floor is added to the bound; below p = 13 it stays under 5e-11.
    """
    u = resolve_function(name)
    eps = np.finfo(float).eps
    worst = []
    for xi in ORDER_TEST_MESHES:
        for p in ORDER_TEST_DEGREES:
            q = min(2, p)
            space = make_space(p, p - 1, xi)
            for projector in ("l2", "q", "ritz", "qtilde"):
                monkeypatch.delenv(ENV_ORDER, raising=False)
                solved = p if projector == "l2" else p - q
                gram = gram_matrix(make_space(solved, solved - 1, xi)).to_dense()
                floor = 8 * eps * np.linalg.cond(gram)
                got = apply_projector(projector, space, q, u).coeffs
                monkeypatch.setenv(ENV_ORDER, str(MAX_ORDER))
                ref = apply_projector(projector, space, q, u).coeffs
                gap = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                worst.append((gap / (1e-10 + floor), xi.num_elements, p, projector, gap))
    ratio, *case = max(worst)
    assert ratio <= 1.0, case


def test_error_norms_match_max_order_rule(monkeypatch):
    """Error norms at the default order agree with the MAX_ORDER rule to 1e-6,
    above the roundoff floor 16 eps |u|_l h_min^-l of the pointwise error."""
    u = resolve_function("runge")
    eps = np.finfo(float).eps
    for xi in ORDER_TEST_MESHES:
        h_min = float(np.min(np.diff(xi.points)))
        for p in (1, 3, 8):
            space = make_space(p, p - 1, xi)
            s = apply_projector("ritz", space, min(2, p), u)
            got = [error_norm(u, s, l) for l in range(3)]
            monkeypatch.setenv(ENV_ORDER, str(MAX_ORDER))
            ref = [error_norm(u, s, l) for l in range(3)]
            floor = [16 * eps * function_seminorm(u, l, xi) * h_min**-l for l in range(3)]
            monkeypatch.delenv(ENV_ORDER)
            for l in range(3):
                assert abs(got[l] - ref[l]) <= 1e-6 * ref[l] + floor[l], (xi, p, l)


def test_mesh_points_shapes():
    xi = Breakpoints(np.array([0.0, 0.25, 1.0]))
    xs, ws = mesh_points(xi, 4)
    assert xs.shape == (2, 4)
    assert ws.sum() == pytest.approx(1.0)
    assert np.all((xs >= 0) & (xs <= 1))
