import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.analysis import error_norm, function_seminorm
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
    grid_table,
    load_vector,
    mesh_points,
    resolve_order,
)

from conftest import project_one, gauss_inner_product, random_breakpoints


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), deg=st.integers(0, 6))
def test_exactness_for_piecewise_polynomials(seed, deg):
    r = np.random.default_rng(seed)
    xi = random_breakpoints(r, 3)
    pts = xi.points
    coeffs = [r.normal(size=deg + 1) for _ in range(xi.points.size - 1)]

    def f(x):
        out = np.empty_like(x)
        idx = np.clip(np.searchsorted(pts, x, side="right") - 1, 0, (xi.points.size - 1) - 1)
        for el in range(xi.points.size - 1):
            m = idx == el
            out[m] = np.polyval(coeffs[el], x[m])
        return out

    # n = ceil((d+1)/2) points integrate f*1 (degree d) exactly
    n = (deg + 1 + 1) // 2
    approx = gauss_inner_product(f, lambda x: np.ones_like(x), xi, n)
    exact = 0.0
    for el in range(xi.points.size - 1):
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


def test_banded_solve(rng):
    space = make_space(3, 2, random_breakpoints(rng, 6))
    gram = gram_matrix(space, 0)
    dense = gram.to_dense()
    b = rng.normal(size=space.dim)
    x = gram.solve_spd(b)
    np.testing.assert_allclose(dense @ x, b, atol=1e-11)


def test_principal_submatrix_is_exact_in_banded_storage(rng):
    # (p, elements): the coarse cases keep at most p functions, so the
    # submatrix is narrower than the band of the full matrix
    for p, nel in ((0, 6), (1, 6), (2, 6), (3, 6), (5, 6), (4, 3), (5, 2), (5, 3), (8, 1)):
        space = make_space(p, p - 1, random_breakpoints(rng, nel))
        for deriv in range(min(p, 2) + 1):
            gram = gram_matrix(space, deriv)
            sub = gram.principal(2, space.dim - 2)
            assert sub.bands.shape == (min(p + 1, space.dim - 4), space.dim - 4)
            assert np.array_equal(sub.to_dense(), gram.to_dense()[2:-2, 2:-2])


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_principal_block_within_the_bandwidth_keeps_its_own_bands(rng, p):
    """principal(lo, lo + m) with m <= bandwidth has m bands, the most an
    m x m matrix has: it densifies to the dense block and solves bit for bit
    as the band clamped to bandwidth m - 1 does.  The clamp matters: scipy's
    banded solver rejects the unclamped 2-band slice of a 1 x 1 block and
    rounds differently on the unclamped slices of some wider ones."""
    from scipy.linalg import solveh_banded

    space = make_space(p, p - 1, random_breakpoints(rng, 6))
    for deriv in range(min(p, 2) + 1):
        gram = gram_matrix(space, deriv)
        dense = gram.to_dense()
        for m in range(1, p + 1):
            for lo in (0, 2, space.dim - m):
                sub = gram.principal(lo, lo + m)
                assert sub.bands.shape == (m, m)
                assert np.array_equal(sub.to_dense(), dense[lo : lo + m, lo : lo + m])
                clamped = gram.bands[: min(p, m - 1) + 1, lo : lo + m]
                rhs = rng.normal(size=m)
                assert np.array_equal(sub.solve_spd(rhs), solveh_banded(clamped, rhs, lower=True))


def test_load_vector_sums_to_interval_length(rng):
    space = make_space(3, 2, random_breakpoints(rng, 4))
    lv = load_vector(space, lambda x: np.ones_like(x), 6)
    assert lv.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("p", [0, 1, 3, 5, 8])
def test_assembly_matches_an_element_loop(rng, p):
    """The Gram bands and the load vector are the element contributions
    added in element order, bit for bit."""
    f = lambda x: np.sin(3.0 * x) - x
    for k in sorted({-1, p - 1}):
        space = make_space(p, k, random_breakpoints(rng, 4))
        for deriv in range(min(p, 2) + 1):
            m = default_order(p)
            table = grid_table([space], [m], (deriv,))
            ws = table.weights.reshape(-1, m)
            first, vals = table.element_basis(deriv, m)
            local = np.einsum("eni,en,enj->eij", vals, ws, vals)
            bands = np.zeros((p + 1, space.dim))
            for e, f0 in enumerate(first):
                for i in range(p + 1):
                    for j in range(i + 1):
                        bands[i - j, f0 + j] += local[e, i, j]
            assert np.array_equal(gram_matrix(space, deriv).bands, bands), (k, deriv)

            n = default_order(p, space.breakpoints)
            table = grid_table([space], [n], (deriv,))
            xs, ws = table.points, table.weights
            first, vals = table.element_basis(deriv, n)
            local = np.einsum("eni,en->ei", vals, (f(xs) * ws).reshape(-1, n))
            load = np.zeros(space.dim)
            for e, f0 in enumerate(first):
                load[f0 : f0 + p + 1] += local[e]
            assert np.array_equal(load_vector(space, f, n, deriv), load), (k, deriv)


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
        lambda: project_one("ritz", space, 2, u),
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
                got = project_one(projector, space, q, u).coeffs
                monkeypatch.setenv(ENV_ORDER, str(MAX_ORDER))
                ref = project_one(projector, space, q, u).coeffs
                gap = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                worst.append((gap / (1e-10 + floor), (xi.points.size - 1), p, projector, gap))
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
            s = project_one("ritz", space, min(2, p), u)
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


def test_mesh_points_are_the_gauss_rule_mapped_to_each_element():
    """The grid of every order is the affine image of the Gauss rule on each
    element, the same for an equal mesh built anew."""
    xi = Breakpoints.uniform(5, 1.0, 3.0, grading=2.0)
    for n in (1, 4, 11, MAX_ORDER):
        xs, ws = mesh_points(xi, n)
        rule = gauss_rule(n)
        a, b = xi.points[:-1, None], xi.points[1:, None]
        half = 0.5 * (b - a)
        assert np.array_equal(xs, half * rule.nodes + 0.5 * (a + b))
        assert np.array_equal(ws, half * rule.weights)
        fresh = mesh_points(Breakpoints(xi.points.copy()), n)
        assert np.array_equal(fresh[0], xs) and np.array_equal(fresh[1], ws)


def test_solve_spd_raises_on_nonfinite_and_indefinite_input():
    from scipy.linalg import LinAlgError

    from ritzspline.quadrature import BandedSymmetric

    for bandwidth in (1, 2):
        bands = np.zeros((bandwidth + 1, 4))
        bands[0] = 2.0
        bands[1, :3] = -1.0
        spd = BandedSymmetric(bands)
        with pytest.raises(ValueError, match="infs or NaNs"):
            spd.solve_spd(np.array([1.0, np.nan, 0.0, 0.0]))
        bad = bands.copy()
        bad[0, 1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            BandedSymmetric(bad).solve_spd(np.ones(4))
        indefinite = bands.copy()
        indefinite[0, 2] = -1.0
        with pytest.raises(LinAlgError, match="not positive definite"):
            BandedSymmetric(indefinite).solve_spd(np.ones(4))


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8, 13, 20])
def test_grid_tables_take_the_spans_a_search_finds(p):
    """The span of element e, gathered once per element at e (p - k), is the
    one ``_basis_table`` searches for each of its Gauss points: the first
    indices and values of every table are those of ``_basis_table`` at its
    space's points, bit for bit, on uniform, graded, one-element and far-off
    meshes, for every smoothness in {-1, 0, p - 1} and several n."""
    from ritzspline.mesh import _basis_table

    meshes = (
        Breakpoints.uniform(5),
        Breakpoints.uniform(6, grading=3.0),
        Breakpoints.uniform(1),
        Breakpoints.uniform(4, 1e6, 1e6 + 1.0),
    )
    orders = range(p + 2)
    for k in sorted({-1, 0, p - 1} & set(range(-1, p))):
        spaces = [make_space(p, k, xi) for xi in meshes]
        starts = np.cumsum([0, *(space.dim for space in spaces[:-1])])
        for ns in ([1, 1, 1, 1], [p + 1, 2, p + 1, 7], [11, 11, 4, 11]):
            table = grid_table(spaces, ns, orders)
            for space, start, lo, hi in zip(spaces, starts, table.ends, table.ends[1:]):
                first, vals = _basis_table(space, table.points[lo:hi], orders)
                assert np.array_equal(table.first[lo:hi], first + start), (k, table.ns)
                assert np.array_equal(table.vals[:, :, lo:hi], vals), (k, table.ns)


def test_grid_tables_of_several_spaces_assemble_as_each_alone(rng):
    """The joined Gram bands and load vectors of a table shared by several
    spaces and orders are each space's own, bit for bit, on a grid of one
    order or of several, the Gram blocks uncoupled."""
    from ritzspline.quadrature import gram_bands, load_values

    f = lambda x: np.sin(3.0 * x) - x
    for p in (1, 3, 5):
        spaces = [
            make_space(p, p - 1, random_breakpoints(rng, 4)),
            make_space(p, -1, Breakpoints.uniform(6, 1e6, 1e6 + 1.0)),
            make_space(p, p // 2 - 1, Breakpoints.uniform(8, grading=3.0)),
            make_space(p, p - 1, Breakpoints.uniform(16, grading=3.0)),
        ]
        ns = [default_order(p), default_order(p, spaces[1].breakpoints), p + 2, p + 2]
        m = p + 3
        orders = sorted({0, 1, min(p, 2)})
        load = grid_table(spaces, ns, orders)
        gram = grid_table(spaces, [m] * len(spaces), orders)
        starts = np.cumsum([0, *(space.dim for space in spaces)])
        for d in orders:
            bands = gram_bands(gram, d).bands
            loads = load_values(load, f(load.points), d)
            for space, n, lo, hi in zip(spaces, ns, starts, starts[1:]):
                want = gram_matrix(space, d, m).bands
                assert np.array_equal(bands[:, lo:hi], want)
                for i in range(1, p + 1):  # couplings to the next space
                    assert not bands[i, hi - i : hi].any()
                assert np.array_equal(loads[lo:hi], load_vector(space, f, n, d))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_stiffness_and_mass_from_one_table(p):
    """The eigenproblem's matrices from one table with orders (2, 0) are the
    separately assembled ones, bit for bit."""
    from ritzspline.quadrature import gram_bands

    for elements in (20, 50, 200):
        space = make_space(p, p - 1, Breakpoints.uniform(elements))
        n = default_order(p)
        table = grid_table([space], [n], (2, 0))
        for d in (2, 0):
            want = gram_matrix(space, d).bands
            assert np.array_equal(gram_bands(table, d).bands, want)

