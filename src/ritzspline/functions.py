"""Smooth test functions with exact derivatives.

Two sources of functions: a builtin registry with closed-form derivatives
of any order, and a small expression language for CLI input,

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' unsigned-integer)?
    base   := number | 'x' | '(' expr ')' | func '(' expr ')'

with func one of sin, cos, exp.  Parsed expressions are differentiated
symbolically with constant folding; exponents are nonnegative integers so
the derivative stays inside the node kinds.

AST nodes are hash-consed: building the same node twice yields the same
object, so repeated derivatives form a shared DAG instead of an
exponentially unfolded tree, and the differentiation and folding passes are
memoized per node.  Evaluation compiles the union DAG of a set of roots,
such as the derivatives of several orders, into one cached post-order
program of numpy operations, each shared node one step; a call runs that
program without walking the tree.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

# Declared derivative order of closed-form builtins: effectively unlimited.
ANY_ORDER = 1_000_000

# Symbolic derivative chains are capped to keep folded ASTs small.
MAX_SYMBOLIC_ORDER = 12


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the source position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Expression AST (interned nodes, identity semantics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Const:
    value: float


@dataclass(frozen=True, eq=False)
class Var:
    pass


@dataclass(frozen=True, eq=False)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True, eq=False)
class Call:
    func: str  # sin | cos | exp
    arg: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Call]

# The pool holds strong references, so child ids in keys stay unique.  It is
# never pruned: it grows with every distinct node ever built.
_POOL: dict[tuple, Expr] = {}


def _interned(key: tuple, make: Callable[[], Expr]) -> Expr:
    node = _POOL.get(key)
    if node is None:
        # setdefault is one atomic dict operation: threads racing on a new
        # key all get the node inserted first.
        node = _POOL.setdefault(key, make())
    return node


def const(v: float) -> Const:
    v = float(v)
    return _interned(("c", v), lambda: Const(v))


def var() -> Var:
    return _interned(("x",), Var)


def add(l: Expr, r: Expr) -> Add:
    return _interned(("+", id(l), id(r)), lambda: Add(l, r))


def sub(l: Expr, r: Expr) -> Sub:
    return _interned(("-", id(l), id(r)), lambda: Sub(l, r))


def mul(l: Expr, r: Expr) -> Mul:
    return _interned(("*", id(l), id(r)), lambda: Mul(l, r))


def div(l: Expr, r: Expr) -> Div:
    return _interned(("/", id(l), id(r)), lambda: Div(l, r))


def power(b: Expr, n: int) -> Pow:
    return _interned(("^", id(b), int(n)), lambda: Pow(b, int(n)))


def call(func: str, arg: Expr) -> Call:
    return _interned((func, id(arg)), lambda: Call(func, arg))


_ZERO = const(0.0)
_ONE = const(1.0)

_CALLS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}


def _div(num, den):
    if np.equal(den, 0.0).any():
        raise ExpressionError("division by zero during evaluation")
    return num / den


def _pow(base, n: int):
    if n < 0 and np.equal(base, 0.0).any():
        raise ExpressionError("division by zero during evaluation")
    e = float(n) if n < 0 else n
    if isinstance(base, float):
        # a constant: numpy's array power, which overflows to inf; float64's
        # scalar power differs from it in the last bit for some bases
        return np.power(base, e)
    return base**e


_BINARY: dict[type, Callable] = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _div}


def _post_order(roots: tuple[Expr, ...]) -> list[Expr]:
    """Every node reachable from ``roots``, once, each after its children."""
    order: list[Expr] = []
    seen: set[int] = set()

    def visit(node: Expr) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        match node:
            case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
                visit(l)
                visit(r)
            case Pow(b, _):
                visit(b)
            case Call(_, a):
                visit(a)
            case Const(_) | Var():
                pass
            case _:
                raise TypeError(f"unknown node {node!r}")
        order.append(node)

    for root in roots:
        visit(root)
    return order


@lru_cache(maxsize=256)
def _program(roots: tuple[Expr, ...]) -> tuple[tuple[float, ...], tuple, tuple[int, ...]]:
    """Straight-line program over the union DAG of the interned ``roots``.

    Returns ``(consts, steps, outs)``.  A run keeps one value per slot: x in
    slot 0, the constants in the next slots, then one slot per step, where a
    step ``(op, i, j)`` holds ``op(slot i, slot j)``, or ``op(slot i)`` when
    j is None.  ``outs`` names the slot of each root.  A node shared by
    several roots is one step, computed once per run.  Constants stay Python
    floats: numpy combines them with an array exactly as it combines an
    array full of them, and a step on constants alone, which only an
    unfolded tree holds, runs the same ufunc on them.
    """
    order = _post_order(roots)
    consts = [node for node in order if isinstance(node, Const)]
    slot = {id(node): i for i, node in enumerate(consts, start=1)}
    steps: list[tuple] = []
    for node in order:
        match node:
            case Var():
                slot[id(node)] = 0
                continue
            case Const(_):
                continue
            case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
                step = (_BINARY[type(node)], slot[id(l)], slot[id(r)])
            case Pow(b, n):
                step = (partial(_pow, n=n), slot[id(b)], None)
            case Call(f, a):
                step = (_CALLS[f], slot[id(a)], None)
        slot[id(node)] = 1 + len(consts) + len(steps)
        steps.append(step)
    return (
        tuple(node.value for node in consts),
        tuple(steps),
        tuple(slot[id(root)] for root in roots),
    )


def evaluate_many(roots: Sequence[Expr], x) -> list[np.ndarray]:
    """Evaluate each AST of ``roots`` at x (scalar or array), running one
    program over their union DAG; division by zero raises.

    Every result has the shape of x, also for a root that is a constant.
    """
    arr = np.asarray(x, dtype=float)
    consts, steps, outs = _program(tuple(roots))
    vals = [arr, *consts]
    for op, i, j in steps:
        vals.append(op(vals[i]) if j is None else op(vals[i], vals[j]))
    return [
        v if getattr(v, "shape", None) == arr.shape else np.full_like(arr, v)
        for v in map(vals.__getitem__, outs)
    ]


def evaluate(ast: Expr, x) -> np.ndarray:
    """Evaluate the AST at x (scalar or array); division by zero raises."""
    return evaluate_many((ast,), x)[0]


@lru_cache(maxsize=None)
def fold(ast: Expr) -> Expr:
    """Bottom-up constant folding and unit/zero simplification."""
    match ast:
        case Const(_) | Var():
            return _refold_leaf(ast)  # canonical interned leaf
        case Add(l, r):
            l, r = fold(l), fold(r)
            if isinstance(l, Const) and isinstance(r, Const):
                return const(l.value + r.value)
            if l is _ZERO:
                return r
            if r is _ZERO:
                return l
            return add(l, r)
        case Sub(l, r):
            l, r = fold(l), fold(r)
            if isinstance(l, Const) and isinstance(r, Const):
                return const(l.value - r.value)
            if r is _ZERO:
                return l
            return sub(l, r)
        case Mul(l, r):
            l, r = fold(l), fold(r)
            if isinstance(l, Const) and isinstance(r, Const):
                return const(l.value * r.value)
            if l is _ZERO or r is _ZERO:
                return _ZERO
            if l is _ONE:
                return r
            if r is _ONE:
                return l
            # keep constants on the left and merge them: c1*(c2*e) -> (c1 c2)*e
            if isinstance(r, Const):
                l, r = r, l
            if isinstance(l, Const) and isinstance(r, Mul) and isinstance(r.left, Const):
                return mul(const(l.value * r.left.value), r.right)
            # merge powers of an identical (interned) base
            lb, le = (l.base, l.exponent) if isinstance(l, Pow) else (l, 1)
            rb, re = (r.base, r.exponent) if isinstance(r, Pow) else (r, 1)
            if lb is rb:
                return fold(power(lb, le + re))
            return mul(l, r)
        case Div(l, r):
            l, r = fold(l), fold(r)
            if isinstance(l, Const) and isinstance(r, Const) and r.value != 0.0:
                return const(l.value / r.value)
            if l is _ZERO:
                return _ZERO
            if r is _ONE:
                return l
            return div(l, r)
        case Pow(b, n):
            b = fold(b)
            if n == 0:
                return _ONE
            if n == 1:
                return b
            if isinstance(b, Const) and not (b.value == 0.0 and n < 0):
                try:
                    return const(float(b.value) ** float(n))
                except OverflowError:  # past the double range: an inf that eval rejects
                    return const(math.copysign(math.inf, b.value) if n % 2 else math.inf)
            if isinstance(b, Pow):
                return fold(power(b.base, b.exponent * n))
            return power(b, n)
        case Call(f, a):
            a = fold(a)
            if isinstance(a, Const):
                # an overflow or a nan folds to a constant that eval rejects
                with np.errstate(over="ignore", invalid="ignore"):
                    return const(float(_CALLS[f](a.value)))
            return call(f, a)
    raise TypeError(f"unknown node {ast!r}")


def _refold_leaf(ast: Expr) -> Expr:
    # leaves built outside the factories are re-interned here
    return const(ast.value) if isinstance(ast, Const) else var()


@lru_cache(maxsize=None)
def _diff(ast: Expr) -> Expr:
    match ast:
        case Const(_):
            return _ZERO
        case Var():
            return _ONE
        case Add(l, r):
            return add(_diff(l), _diff(r))
        case Sub(l, r):
            return sub(_diff(l), _diff(r))
        case Mul(l, r):
            return add(mul(_diff(l), r), mul(l, _diff(r)))
        case Div(l, r):
            # product rule on l * r^-1 keeps denominator exponents linear in
            # the derivative order (the textbook quotient rule doubles them)
            return add(
                mul(_diff(l), power(r, -1)),
                mul(l, mul(mul(const(-1.0), power(r, -2)), _diff(r))),
            )
        case Pow(b, n):
            if n == 0:
                return _ZERO
            return mul(mul(const(float(n)), power(b, n - 1)), _diff(b))
        case Call("sin", a):
            return mul(call("cos", a), _diff(a))
        case Call("cos", a):
            return mul(const(-1.0), mul(call("sin", a), _diff(a)))
        case Call("exp", a):
            return mul(call("exp", a), _diff(a))
    raise TypeError(f"unknown node {ast!r}")


def differentiate(ast: Expr) -> Expr:
    """Symbolic derivative with constant folding."""
    return fold(_diff(fold(ast)))


@lru_cache(maxsize=None)
def nth_derivative(ast: Expr, n: int) -> Expr:
    if n > MAX_SYMBOLIC_ORDER:
        raise ValueError(f"symbolic derivatives capped at order {MAX_SYMBOLIC_ORDER}")
    if n == 0:
        return fold(ast)
    return differentiate(nth_derivative(ast, n - 1))


def to_source(ast: Expr) -> str:
    """Render the AST back into the expression grammar."""
    match ast:
        case Const(v):
            # the grammar has no unary minus; negatives render as (0 - |v|)
            return repr(v) if v >= 0 else f"(0-{abs(v)!r})"
        case Var():
            return "x"
        case Add(l, r):
            return f"({to_source(l)}+{to_source(r)})"
        case Sub(l, r):
            return f"({to_source(l)}-{to_source(r)})"
        case Mul(l, r):
            return f"({to_source(l)}*{to_source(r)})"
        case Div(l, r):
            return f"({to_source(l)}/{to_source(r)})"
        case Pow(b, n):
            body = to_source(b) if isinstance(b, (Const, Var, Call)) else f"({to_source(b)})"
            # negative internal exponents render through the grammar's division
            return f"{body}^{n}" if n >= 0 else f"(1/{body}^{abs(n)})"
        case Call(f, a):
            return f"{f}({to_source(a)})"
    raise TypeError(f"unknown node {ast!r}")


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, message: str) -> ExpressionError:
        return ExpressionError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        ast = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.error("unexpected trailing input")
        return ast

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected unsigned integer exponent")
            node = power(node, int(self.src[start : self.pos]))
        return node

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalpha():
                self.pos += 1
            name = self.src[start : self.pos]
            if name == "x":
                return var()
            if name in _CALLS:
                self.take("(")
                node = self.expr()
                self.take(")")
                return call(name, node)
            self.pos = start
            raise self.error(f"unknown identifier '{name}'")
        raise self.error("expected number, 'x', '(' or function")

    def number(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos].isdigit():
                while self.pos < len(self.src) and self.src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = self.src[start : self.pos]
        try:
            return const(float(text))
        except ValueError:
            self.pos = start
            raise self.error(f"invalid number '{text}'") from None


def parse(src: str) -> Expr:
    """Parse an expression in the grammar; raises ExpressionError with position."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Smooth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothFunction:
    """Function with exact derivatives up to ``max_order``.

    ``evaluator(x, d)`` returns the d-th derivative at x (array in, array
    out).  Instances are immutable and safe to share.
    """

    evaluator: Callable[[np.ndarray, int], np.ndarray]
    max_order: int
    description: str

    def _derivatives(self, x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        """The derivatives of several orders at x, one evaluator call each."""
        return [self.evaluator(x, d) for d in orders]

    def eval(self, x, deriv: int | Sequence[int] = 0):
        """The deriv-th derivative at x: a float for scalar x, else an array
        shaped like x.

        ``deriv`` may also be a sequence of orders: the result then stacks
        one array per order along a new first axis, as ``eval_spline_many``
        does.  The evaluator is called once per order, and a parsed
        expression serves all of them from one program.  Every value must be
        finite; the error names the first nonfinite one, its order and x.
        """
        single = isinstance(deriv, (int, np.integer))
        orders = (deriv,) if single else tuple(deriv)
        for d in orders:
            if not 0 <= d <= self.max_order:
                raise ValueError(
                    f"requires 0 <= deriv <= max_order={self.max_order}: got {d}"
                )
        arr = np.asarray(x, dtype=float)
        out = np.empty((len(orders), *arr.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for i, v in enumerate(self._derivatives(arr, orders)):
                out[i] = v
        if not np.isfinite(out).all():
            for d, row in zip(orders, out):
                bad = ~np.isfinite(row)
                if bad.any():
                    raise ValueError(
                        f"requires u finite on the interval: derivative {d} of "
                        f"{self.description} is {row[bad][0]} at x={float(arr[bad][0])}"
                    )
        if not single:
            return out
        return float(out[0]) if not arr.ndim else out[0]

    def derivative(self, n: int = 1) -> "SmoothFunction":
        """The n-th derivative as a new function (orders shift down by n)."""
        if not 0 <= n <= self.max_order:
            raise ValueError(f"requires 0 <= n <= max_order={self.max_order}")
        parent = self.evaluator
        return SmoothFunction(
            lambda x, d: parent(x, d + n),
            self.max_order - n,
            f"d^{n}/dx^{n} of {self.description}",
        )

    def as_integrand(self, deriv: int = 0) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: self.eval(x, deriv)


@dataclass(frozen=True)
class _Expression(SmoothFunction):
    """A parsed expression, folded: the orders of one ``eval`` call are
    evaluated by one program over the union DAG of their derivatives."""

    ast: Expr = field(repr=False)

    def _derivatives(self, x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        return evaluate_many([nth_derivative(self.ast, d) for d in orders], x)


def from_ast(ast: Expr, description: str) -> SmoothFunction:
    folded = fold(ast)

    def evaluator(x: np.ndarray, d: int) -> np.ndarray:
        return evaluate(nth_derivative(folded, d), x)

    return _Expression(evaluator, MAX_SYMBOLIC_ORDER, description, folded)


def from_expression(src: str) -> SmoothFunction:
    """Parse the expression and wrap it with cached symbolic derivatives."""
    return from_ast(parse(src), src)


def _sin4x(x: np.ndarray, d: int) -> np.ndarray:
    return 4.0**d * np.sin(4.0 * x + d * np.pi / 2.0)


def _x6(x: np.ndarray, d: int) -> np.ndarray:
    if d > 6:
        return np.zeros_like(x)
    c = math.factorial(6) / math.factorial(6 - d)
    return c * x ** (6 - d)


def _runge(x: np.ndarray, d: int) -> np.ndarray:
    # 1/(1+25x^2) = Im 1/(5x - i); the d-th derivative follows from the
    # complex power rule and stays exact for any order.
    z = 5.0 * x - 1j
    return (5.0**d) * ((-1.0) ** d) * math.factorial(d) * np.imag(z ** (-(d + 1)))


def _exp(x: np.ndarray, d: int) -> np.ndarray:
    return np.exp(x)


_BUILTINS: dict[str, tuple[Callable[[np.ndarray, int], np.ndarray], int, str]] = {
    "sin4x": (_sin4x, ANY_ORDER, "sin(4x)"),
    "x6": (_x6, ANY_ORDER, "x^6"),
    "runge": (_runge, 170, "1/(1+25x^2)"),
    "exp": (_exp, ANY_ORDER, "exp(x)"),
}


def builtin(name: str) -> SmoothFunction:
    """Builtin test function by name; unknown names list the registry."""
    try:
        evaluator, order, desc = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin '{name}'; available: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return SmoothFunction(evaluator, order, desc)


def resolve_function(name_or_expr: str) -> SmoothFunction:
    """Builtin name if registered, otherwise parsed as an expression."""
    if name_or_expr in _BUILTINS:
        return builtin(name_or_expr)
    return from_expression(name_or_expr)
