import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.functions import (
    Call,
    Const,
    ExpressionError,
    Mul,
    Var,
    builtin,
    differentiate,
    evaluate,
    from_expression,
    nth_derivative,
    parse,
    resolve_function,
    to_source,
)
from ritzspline.functions import _POOL, _interned


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_interned_keeps_the_node_inserted_first():
    """A node built while another thread interns the same key loses: both
    callers get the node that was inserted first."""
    key = ("test-race",)
    first = Const(1.0)

    def make():
        _POOL[key] = first  # the other thread wins the race meanwhile
        return Const(1.0)

    try:
        assert _interned(key, make) is first
        assert _interned(key, lambda: Const(2.0)) is first
    finally:
        del _POOL[key]


def test_threads_parsing_one_expression_share_its_nodes():
    """More threads than cores parse the same new expressions at once, with a
    short switch interval: every thread gets the same root node, which a lost
    interning race would break."""
    import sys
    import threading

    n_threads, rounds = 8, 40
    roots = [[None] * rounds for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=10)

    def work(i):
        for r in range(rounds):
            barrier.wait()
            roots[i][r] = parse(f"sin({r}.25*x)*(x+{r}.5)^3-exp(x/{r}.75)+{r}.125")

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
    for r in range(rounds):
        assert all(row[r] is roots[0][r] for row in roots), r


def test_parse_sin4x_shape():
    ast = parse("sin(4*x)")
    assert isinstance(ast, Call) and ast.func == "sin"
    assert isinstance(ast.arg, Mul)
    assert isinstance(ast.arg.left, Const) and ast.arg.left.value == 4.0
    assert isinstance(ast.arg.right, Var)


def test_power_evaluation():
    assert evaluate(parse("x^6"), 0.5) == pytest.approx(0.015625)


def test_division_by_zero_evaluates_to_error_but_parses():
    ast = parse("1/(x-x)")
    with pytest.raises(ExpressionError):
        evaluate(ast, 1.0)


def test_precedence():
    assert evaluate(parse("2+3*4"), 0.0) == pytest.approx(14.0)
    assert evaluate(parse("2*3^2"), 0.0) == pytest.approx(18.0)
    assert evaluate(parse("8/4/2"), 0.0) == pytest.approx(1.0)  # left associative
    assert evaluate(parse("1-2-3"), 0.0) == pytest.approx(-4.0)


def test_whitespace_and_scientific_numbers():
    assert evaluate(parse(" 1.5e2 + x "), 1.0) == pytest.approx(151.0)


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionError) as err:
        parse("sin(2*x")
    assert err.value.position is not None
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse("tan(x)")
    with pytest.raises(ExpressionError):
        parse("x^-2")
    with pytest.raises(ExpressionError):
        parse("2**3")
    with pytest.raises(ExpressionError):
        parse("")


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_derivative_of_sin4x():
    d = differentiate(parse("sin(4*x)"))
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(evaluate(d, xs), 4 * np.cos(4 * xs), atol=1e-14)


def test_derivative_of_power():
    d = differentiate(parse("x^6"))
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(evaluate(d, xs), 6 * xs**5, atol=1e-14)


def test_seventh_derivative_of_x6_folds_to_zero():
    assert nth_derivative(parse("x^6"), 7) is nth_derivative(parse("0"), 0)


def test_derivative_cap():
    with pytest.raises(ValueError):
        nth_derivative(parse("sin(x)"), 13)


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


def _random_ast(r, depth):
    if depth == 0:
        return r.choice(["x", f"{r.uniform(0.2, 3):.3f}"])
    kind = r.integers(0, 6)
    a = _random_ast(r, depth - 1)
    b = _random_ast(r, depth - 1)
    if kind == 0:
        return f"({a}+{b})"
    if kind == 1:
        return f"({a}-{b})"
    if kind == 2:
        return f"({a}*{b})"
    if kind == 3:
        return f"({a}/((({b})^2+1)))"  # keep denominators positive
    if kind == 4:
        return f"sin({a})"
    return f"exp(({a})/4)"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_print_parse_roundtrip_evaluates_identically(seed):
    r = np.random.default_rng(seed)
    src = _random_ast(r, 3)
    ast = nth_derivative(parse(src), int(r.integers(0, 3)))
    text = to_source(ast)
    again = parse(text)
    xs = r.uniform(0, 1, 50)
    np.testing.assert_allclose(
        evaluate(again, xs), evaluate(ast, xs), rtol=1e-12, atol=1e-12
    )


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
