import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritzspline.functions import (
    Add,
    Call,
    Const,
    Div,
    ExpressionError,
    Mul,
    Pow,
    Sub,
    Var,
    builtin,
    const,
    differentiate,
    evaluate,
    evaluate_many,
    fold,
    from_expression,
    mul,
    nth_derivative,
    parse,
    power,
    resolve_function,
    to_source,
)
from ritzspline.functions import _CALLS, _POOL, _interned


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
# compiled evaluation against a tree walk
# ---------------------------------------------------------------------------


def _walk(ast, x):
    """Reference evaluator: a recursive walk with a per-call memo, constants
    as arrays full of their value."""
    arr = np.asarray(x, dtype=float)
    memo = {}

    def rec(node):
        if id(node) in memo:
            return memo[id(node)]
        match node:
            case Const(v):
                out = np.full_like(arr, v)
            case Var():
                out = arr
            case Add(l, r):
                out = rec(l) + rec(r)
            case Sub(l, r):
                out = rec(l) - rec(r)
            case Mul(l, r):
                out = rec(l) * rec(r)
            case Div(l, r):
                den = rec(r)
                if np.any(den == 0.0):
                    raise ExpressionError("division by zero during evaluation")
                out = rec(l) / den
            case Pow(b, n):
                # as an array: on 0-d x the walk's values are numpy scalars,
                # whose ** rounds differently from the array power
                base = np.asarray(rec(b))
                if n < 0 and np.any(base == 0.0):
                    raise ExpressionError("division by zero during evaluation")
                out = base ** float(n) if n < 0 else base**n
            case Call(f, a):
                out = _CALLS[f](rec(a))
        memo[id(node)] = out
        return out

    return rec(ast)


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


@settings(max_examples=150, deadline=None)
@given(
    src=_EXPRESSIONS,
    orders=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
    x=_points(),
)
def test_eval_of_orders_is_the_tree_walk_bit_for_bit(src, orders, x):
    """One program for several orders gives each order's values of a walk of
    that order's tree alone, for 0-d, 2-point and longer x."""
    f = from_expression(src)
    tree = parse(src)
    folded = fold(tree)
    with np.errstate(all="ignore"):
        want = [_walk(nth_derivative(folded, d), x) for d in orders]
        # the unfolded tree keeps its constant-only subtrees
        assert np.array_equal(_bits(evaluate(tree, x)), _bits(_walk(tree, x)))
    if not all(np.isfinite(w).all() for w in want):
        with pytest.raises(ValueError, match="requires u finite"):
            f.eval(x, orders)
        return
    got = f.eval(x, orders)
    assert got.shape == (len(orders), *x.shape)
    for d, row, w in zip(orders, got, want):
        assert np.array_equal(_bits(row), _bits(np.broadcast_to(w, x.shape))), d
        single = f.eval(x, d)
        assert np.array_equal(_bits(single), _bits(w)), d
    for root, w in zip(evaluate_many([nth_derivative(folded, d) for d in orders], x), want):
        assert np.array_equal(_bits(root), _bits(w))


def test_constant_powers_of_an_unfolded_tree_match_the_walk():
    """A constant-only power, left by ``parse`` without ``fold``, is numpy's
    array power, as on an array full of the constant: float64's scalar power
    differs from it in the last bit for some bases."""
    x = np.linspace(1.0, 3.0, 7)
    for c in np.random.default_rng(0).uniform(1.0, 3.0, 200):
        trees = [parse(f"{float(c)!r}^{n}*x") for n in (2, 3, 4)]
        trees += [mul(power(const(c), n), parse("x")) for n in (-1, -2, -3)]
        for tree in trees:
            assert np.array_equal(_bits(evaluate(tree, x)), _bits(_walk(tree, x))), tree
            assert np.array_equal(_bits(evaluate(tree, 2.0)), _bits(_walk(tree, 2.0))), tree


def test_constant_roots_fill_the_shape_of_x():
    x = np.linspace(0.0, 1.0, 5)
    seventh, sixth = evaluate_many([nth_derivative(parse("x^6"), d) for d in (7, 6)], x)
    assert seventh.shape == sixth.shape == x.shape
    assert np.all(seventh == 0.0) and np.all(sixth == 720.0)
    assert evaluate(parse("2^3+1"), 0.5) == 9.0
    with np.errstate(over="ignore"):  # a constant power overflows as numpy's does
        assert evaluate(parse("10^400"), np.zeros(2)).tolist() == [np.inf, np.inf]


def test_division_by_zero_raises_for_any_order_set():
    f = from_expression("1/(x-1)")
    for orders in ([0], [2, 0], [1, 3]):
        with pytest.raises(ExpressionError, match="division by zero"):
            f.eval(np.array([0.0, 1.0]), orders)
    assert f.eval(np.array([0.0, 2.0]), [1, 0]).tolist() == [[-1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ExpressionError, match="division by zero"):
        evaluate_many([parse("x"), parse("x/0")], 1.0)


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
    """Folding a constant power past the double range gives the signed inf
    of the power, not Python's OverflowError; evaluating the function then
    names the nonfinite value."""
    f = from_expression(src)
    with pytest.raises(ValueError, match="requires u finite"):
        f.eval(np.array([0.5, 1.0]), 0)
    with pytest.raises(ValueError, match=f"is {value}"):
        f.eval(np.array([0.5]), 0)


@pytest.mark.parametrize("src", ["exp(exp(exp(2^4/4)/4)/4)", "sin(exp(1000))"])
def test_a_constant_call_that_overflows_folds_without_a_warning(src):
    """Folding exp of a large constant (inf) or sin of inf (nan) raises no
    numpy warning; evaluating the function then names the nonfinite value."""
    f = from_expression(src)
    with pytest.raises(ValueError, match="requires u finite"):
        f.eval(np.array([0.0, 0.5]), 0)
