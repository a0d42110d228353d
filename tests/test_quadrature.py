import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.mesh import Breakpoints, make_space
from ritzspline.quadrature import (
    ENV_ORDER,
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
    gram.cholesky()  # raises if not SPD


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


def test_mesh_points_shapes():
    xi = Breakpoints(np.array([0.0, 0.25, 1.0]))
    xs, ws = mesh_points(xi, 4)
    assert xs.shape == (2, 4)
    assert ws.sum() == pytest.approx(1.0)
    assert np.all((xs >= 0) & (xs <= 1))
