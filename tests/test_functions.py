import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.cli import main
from ritzspline.functions import (
    Call,
    Const,
    ExpressionError,
    Mul,
    Var,
    builtin,
    from_expression,
    parse,
    resolve_function,
)


def value(src, x, d=0):
    return from_expression(src).eval(x, d)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_sin4x_shape():
    ast = parse("sin(4*x)")
    assert isinstance(ast, Call) and ast.func == "sin"
    assert isinstance(ast.arg, Mul)
    assert isinstance(ast.arg.left, Const) and ast.arg.left.value == 4.0
    assert isinstance(ast.arg.right, Var)


def test_power_evaluation():
    assert value("x^6", 0.5) == pytest.approx(0.015625)


def test_division_by_zero_evaluates_to_error_but_parses():
    f = from_expression("1/(x-x)")
    with pytest.raises(ExpressionError):
        f.eval(1.0)


def test_precedence():
    assert value("2+3*4", 0.0) == pytest.approx(14.0)
    assert value("2*3^2", 0.0) == pytest.approx(18.0)
    assert value("8/4/2", 0.0) == pytest.approx(1.0)  # left associative
    assert value("1-2-3", 0.0) == pytest.approx(-4.0)


def test_whitespace_and_scientific_numbers():
    assert value(" 1.5e2 + x ", 1.0) == pytest.approx(151.0)


def test_syntax_errors_carry_position():
    for src, message, position in [
        ("sin(2*x", "expected ')'", 7),
        ("tan(x)", "unknown identifier 'tan'", 0),
        ("x^-2", "expected unsigned integer exponent", 2),
        ("2**3", "expected number, 'x', '(' or function", 2),
        ("", "expected number, 'x', '(' or function", 0),
        ("1.5e", "unexpected trailing input", 3),
        ("(x))", "unexpected trailing input", 3),
    ]:
        with pytest.raises(ExpressionError) as err:
            from_expression(src)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_derivative_of_sin4x():
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(value("sin(4*x)", xs, 1), 4 * np.cos(4 * xs), atol=1e-14)


def test_derivative_of_power():
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(value("x^6", xs, 1), 6 * xs**5, atol=1e-14)


def test_seventh_derivative_of_x6_folds_to_zero():
    """Rows above the degree of a power of x are exact zeros while compiling:
    the seventh derivative runs no step and fills the shape of x."""
    f = from_expression("x^6")
    x = np.linspace(0.0, 1.0, 5)
    seventh, sixth = f.eval(x, [7, 6])
    assert np.all(seventh == 0.0) and np.all(sixth == 720.0)
    consts, steps, outs = f.evaluator.programs[8]
    assert 1 <= outs[7] <= len(consts) and consts[outs[7] - 1] == 0.0
    assert f.eval(0.5, 7) == 0.0


def test_derivative_cap():
    f = from_expression("sin(x)")
    assert f.max_order == 12
    f.eval(0.5, 12)
    for orders in (13, [0, 13]):
        with pytest.raises(ValueError, match="max_order=12: got 13"):
            f.eval(0.5, orders)


@pytest.mark.parametrize(
    "src",
    [
        "sin(4*x)",
        "exp(2*x)*cos(3*x)",
        "x^4/(1+x^2)",
        "1/(1+25*x^2)",
        "(x+1)^3-exp(x)/(2+sin(x))",
    ],
)
def test_symbolic_derivative_matches_finite_differences(src):
    f = from_expression(src)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.05, 0.95, 20)
    h = 1e-5
    for d in range(1, 5):
        fd = (f.eval(xs + h, d - 1) - f.eval(xs - h, d - 1)) / (2 * h)
        got = f.eval(xs, d)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(got - fd) / denom) < 1e-6, (src, d)


_ORACLE = [
    ("exp(x)*sin(3*x)+x^5/(1+x^2)", (0.0, 1.0)),
    ("exp(x)*sin(3*x)+x^5/(1+x^2)", (1.0, 3.0)),
    ("1/(1+25*x^2)", (0.0, 1.0)),
    ("1/(1+25*x^2)", (1.0, 3.0)),
    ("1/(1+25*x^2)", (1e6, 1e6 + 1)),
    ("x^5/(1+x^2)-sin(x)^3", (0.0, 1.0)),
    ("x^5/(1+x^2)-sin(x)^3", (1.0, 3.0)),
    ("x^5/(1+x^2)-sin(x)^3", (1e6, 1e6 + 1)),
    ("cos(exp(x))*x^7-3.5", (0.0, 1.0)),
    ("cos(exp(x))*x^7-3.5", (1.0, 3.0)),
]


@pytest.mark.parametrize("src,interval", _ORACLE)
def test_derivatives_match_a_50_digit_reference(src, interval):
    """Orders 0..12 against mpmath's differentiation at 50 digits, each
    within 1e-13 of the largest value of its order on the points."""
    xs = np.linspace(*interval, 5)
    got = from_expression(src).eval(xs, list(range(13)))
    names = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp}
    code = compile(src.replace("^", "**"), src, "eval")
    with mpmath.workdps(50):
        want = np.array([
            [float(v) for v in mpmath.diffs(lambda t: eval(code, {**names, "x": t}),
                                            mpmath.mpf(float(x)), 12)]
            for x in xs
        ]).T
    for d in range(13):
        scale = np.max(np.abs(want[d]))
        assert np.max(np.abs(got[d] - want[d])) <= 1e-13 * scale, d


# ---------------------------------------------------------------------------
# one program for several orders
# ---------------------------------------------------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_LEAVES = st.sampled_from(["x", "0.5", "1.25", "2", "3", "0.1"])


def _grow(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        pair.map("({0[0]}+{0[1]})".format),
        pair.map("({0[0]}-{0[1]})".format),
        pair.map("({0[0]}*{0[1]})".format),
        pair.map("({0[0]}/(({0[1]})^2+1))".format),  # denominators stay >= 1
        st.tuples(inner, st.integers(0, 4)).map("({0[0]})^{0[1]}".format),
        inner.map("sin({})".format),
        inner.map("cos({})".format),
        inner.map("exp(({})/4)".format),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=8)
_INTERVALS = st.sampled_from([(0.0, 1.0), (1.0, 3.0)])


@st.composite
def _points(draw):
    a, b = draw(_INTERVALS)
    point = st.floats(a, b)
    shape = draw(st.sampled_from(["0-d", "2-point", "array"]))
    if shape == "0-d":
        return np.array(draw(point))
    size = 2 if shape == "2-point" else draw(st.integers(3, 40))
    return np.array(draw(st.lists(point, min_size=size, max_size=size)))


@settings(max_examples=100, deadline=None)
@given(
    src=_EXPRESSIONS,
    orders=st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True),
    x=_points(),
)
def test_each_order_is_independent_of_the_other_orders_asked_for(src, orders, x):
    """One ``eval`` of several orders gives each order the bits of an
    ``eval`` of that order alone, for 0-d, 2-point and longer x."""
    f = from_expression(src)
    alone = {}
    for d in orders:
        try:
            alone[d] = f.eval(x, d)
        except ValueError:
            alone[d] = None
    bad = [d for d in orders if alone[d] is None]
    if bad:
        with pytest.raises(ValueError, match=f"derivative {bad[0]} of"):
            f.eval(x, orders)
        return
    got = f.eval(x, orders)
    assert got.shape == (len(orders), *x.shape)
    for d, row in zip(orders, got):
        assert np.array_equal(_bits(row), _bits(alone[d])), d


def test_programs_are_compiled_once_per_row_count():
    f = from_expression("sin(x)*x^2/(1+x)")
    assert from_expression("sin(x)*x^2/(1+x)") is f
    f.eval(np.array([0.5, 0.75]), [0, 2])
    f.eval(0.25, [2, 1])
    f.eval(0.25, 1)
    assert sorted(f.evaluator.programs) == [2, 3]
    assert from_expression.cache_info().maxsize == 64


def test_threads_evaluating_one_expression_agree():
    """More threads than cores evaluate new expressions at once, with a short
    switch interval, each asking for other orders: every thread gets the bits
    of a single-threaded run, and each row count keeps one program."""
    import sys
    import threading

    n_threads, rounds = 8, 20
    srcs = [f"sin({r}.25*x)*(x+{r}.5)^3-exp(x/{r}.75)/(1+x^2)" for r in range(rounds)]
    x = np.linspace(0.0, 1.0, 9)
    got = [[None] * rounds for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=10)

    def work(i):
        for r, src in enumerate(srcs):
            barrier.wait()
            got[i][r] = from_expression(src).eval(x, [i % 5, 4, 0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r, src in enumerate(srcs):
        f = from_expression(src)
        assert sorted(f.evaluator.programs) == [5]
        want = f.eval(x, range(5))
        for i in range(n_threads):
            assert np.array_equal(_bits(got[i][r]), _bits(want[[i % 5, 4, 0]])), (i, r)


def test_constant_roots_fill_the_shape_of_x():
    x = np.linspace(0.0, 1.0, 5)
    assert from_expression("2^3+1").eval(x, [0, 1]).tolist() == [[9.0] * 5, [0.0] * 5]
    assert from_expression("2^3+1").evaluator(x, 0).shape == x.shape
    assert value("2^3+1", 0.5) == 9.0


def test_division_by_zero_raises_for_any_order_set():
    """A denominator that vanishes at a point raises, whichever orders are
    asked for, also where the numerator vanishes."""
    for src in ("1/(x-1)", "x/0", "1/0", "x/x", "0/x", "0/(x-x)"):
        f = from_expression(src)
        for orders in ([0], [2, 0], [1, 3], [12]):
            with pytest.raises(ExpressionError, match="division by zero"):
                f.eval(np.array([0.0, 1.0]), orders)


def test_a_quotient_away_from_its_poles():
    f = from_expression("1/(x-1)")
    assert f.eval(np.array([0.0, 2.0]), [1, 0]).tolist() == [[-1.0, -1.0], [-1.0, 1.0]]


def test_eval_of_orders_names_the_first_order_that_is_not_finite():
    """sin(exp(x)) and its first derivative are finite at x = 709.5, its
    second derivative overflows there."""
    f = from_expression("sin(exp(x))")
    x = np.array([0.0, 709.5])
    assert np.isfinite(f.eval(x, [1, 0])).all()
    for orders, named in (([0, 2, 1], 2), ([1, 3, 2], 3), ([2, 3], 2)):
        with pytest.raises(ValueError, match=rf"derivative {named} of sin\(exp\(x\)\) is \S+ at x=709.5"):
            f.eval(x, orders)
    assert f.eval(x, []).shape == (0, 2)


# ---------------------------------------------------------------------------
# builtins and smooth functions
# ---------------------------------------------------------------------------


def test_builtin_values():
    u = builtin("sin4x")
    assert u.eval(0.0) == 0.0
    assert u.eval(0.0, 1) == pytest.approx(4.0)
    assert u.eval(0.0, 2) == pytest.approx(0.0, abs=1e-14)

    v = builtin("x6")
    assert v.eval(1.0) == pytest.approx(1.0)
    assert v.eval(1.0, 1) == pytest.approx(6.0)

    w = builtin("runge")
    assert w.eval(0.0) == pytest.approx(1.0)
    assert w.eval(0.0, 1) == pytest.approx(0.0, abs=1e-15)

    e = builtin("exp")
    assert e.eval(1.0, 5) == pytest.approx(np.e)


def test_unknown_builtin_lists_registry():
    with pytest.raises(ValueError, match="runge"):
        builtin("nope")


@pytest.mark.parametrize("name", ["sin4x", "x6", "runge", "exp"])
def test_builtin_derivatives_match_finite_differences(name):
    u = builtin(name)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.4, 0.9, 12)
    h = 1e-5
    for d in range(1, min(u.max_order, 6) + 1):
        fd = (u.eval(xs + h, d - 1) - u.eval(xs - h, d - 1)) / (2 * h)
        got = u.eval(xs, d)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(got - fd) / denom) < 1e-6, (name, d)


def test_derivative_shifting():
    u = builtin("sin4x")
    du = u.derivative(2)
    xs = np.linspace(0, 1, 9)
    np.testing.assert_allclose(du.eval(xs), u.eval(xs, 2), atol=1e-14)
    assert du.max_order == u.max_order - 2
    f = from_expression("sin(4*x)")
    assert np.array_equal(f.derivative(2).eval(xs, 1), f.eval(xs, 3))
    assert u.derivative(0) is u and f.derivative(0) is f


def test_eval_order_guard():
    f = from_expression("sin(x)")
    with pytest.raises(ValueError):
        f.eval(0.0, 13)
    with pytest.raises(ValueError):
        f.eval(0.0, -1)


@pytest.mark.parametrize("src,value", [("exp(x)", "inf"), ("exp(x)-exp(2*x)", "nan")])
def test_eval_names_the_first_nonfinite_value(src, value):
    # overflow (inf) and inf - inf (nan) raise no numpy warning, only this error
    f = from_expression(src)
    xs = np.array([[0.0, 1.0, 800.0], [900.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match=rf"finite .*derivative 1 of {re.escape(src)} is {value} at x=800.0"):
        f.eval(xs, 1)
    with pytest.raises(ValueError, match=rf"derivative 0 of .* at x=900.0"):
        f.eval(900.0)


def test_resolve_function_prefers_builtin():
    assert resolve_function("x6").description == "x^6"
    assert resolve_function("x^6").description == "x^6"
    xs = np.linspace(0, 1, 5)
    np.testing.assert_allclose(
        resolve_function("x6").eval(xs), resolve_function("x^6").eval(xs), atol=1e-14
    )


@pytest.mark.parametrize(
    "src,value",
    [("(1e200)^2*x", np.inf), ("(0-1e200)^3*x", -np.inf), ("(0-1e200)^2*x", np.inf)],
)
def test_a_constant_power_that_overflows_folds_to_inf(src, value):
    """Compiling a constant power past the double range gives the signed inf
    of the power, not Python's OverflowError; evaluating the function then
    names the nonfinite value."""
    f = from_expression(src)
    with pytest.raises(ValueError, match="requires u finite"):
        f.eval(np.array([0.5, 1.0]), 0)
    with pytest.raises(ValueError, match=f"is {value}"):
        f.eval(np.array([0.5]), 0)


@pytest.mark.parametrize("src", ["exp(exp(exp(2^4/4)/4)/4)", "sin(exp(1000))"])
def test_a_constant_call_that_overflows_folds_without_a_warning(src):
    """Compiling exp of a large constant (inf) or sin of inf (nan) raises no
    numpy warning; evaluating the function then names the nonfinite value."""
    f = from_expression(src)
    with pytest.raises(ValueError, match="requires u finite"):
        f.eval(np.array([0.0, 0.5]), 0)


@pytest.mark.parametrize(
    "src,message",
    [
        ("(1e200)^2*x", "requires u finite"),
        ("(0-1e200)^3*x", "requires u finite"),
        ("sin(exp(1000))", "requires u finite"),
        ("exp(exp(exp(2^4/4)/4)/4)", "requires u finite"),
        ("(1e200*x)^2", "requires u finite"),
        ("x/x", "division by zero"),
        ("1/0", "division by zero"),
        ("0/x", "division by zero"),
    ],
)
def test_project_on_a_function_it_cannot_evaluate_exits_2(tmp_path, capsys, src, message):
    """Under the suite's warnings-as-errors, a numpy warning or a Python
    OverflowError would exit 1 as an internal error instead."""
    rc = main(["project", "--function", src, "--p", "2", "--q", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
