"""Smooth test functions with exact derivatives.

A :class:`SmoothFunction` asks its evaluator for every derivative order
one call needs at once.  Two sources of functions: a builtin registry with
closed-form derivatives of any order, and a small expression language for
CLI input,

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' unsigned-integer)?
    base   := number | 'x' | '(' expr ')' | func '(' expr ')'

with func one of sin, cos, exp, and -f read as 0 - f, so -x^2 is -(x^2).

Parsed expressions get their derivatives from truncated Taylor arithmetic
(Griewank and Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 13): every node carries the rows f^(i)(x)/i!, i < k, and each operation
maps the rows of its operands to its own by a recurrence.  An expression is
compiled once per row count k into a straight-line program of numpy
operations; rows known exactly while compiling (constants, the 1 of x',
zeros) are combined then and emit no step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Union

import numpy as np

# Declared derivative order of closed-form builtins: effectively unlimited.
ANY_ORDER = 1_000_000

# Derivative orders of a parsed expression are capped to keep its programs small.
MAX_SYMBOLIC_ORDER = 12

# Parentheses and calls nest at most MAX_NESTING deep, and the parsed tree,
# one level per operator of a chain of + - * / or unary -, has at most
# MAX_DEPTH levels: the parser and the compiler recurse that deep.
MAX_NESTING, MAX_DEPTH = 200, 500


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the source position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class _Binary:
    left: "Expr"
    right: "Expr"


class Add(_Binary): ...


class Sub(_Binary): ...


class Mul(_Binary): ...


class Div(_Binary): ...


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # sin | cos | exp
    arg: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Call]

_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _div(num, den):
    if np.equal(den, 0.0).any():
        raise ExpressionError("division by zero during evaluation")
    return np.divide(num, den)


# ---------------------------------------------------------------------------
# Taylor rows
# ---------------------------------------------------------------------------


def _exact(v, c: float) -> bool:
    return type(v) is float and v == c


def _compile(ast: Expr, k: int) -> tuple[tuple[float, ...], tuple, tuple[int, ...]]:
    """Straight-line program for the rows f^(i)(x)/i!, i < k, of ``ast``.

    Returns ``(consts, steps, outs)``.  A run keeps x in slot 0, the
    constants in the next slots, then the value of each step ``(op, i, j)``:
    ``op(slot i, slot j)``, or ``op(slot i)`` when j is None; ``outs`` names
    the slot of each row.  While compiling, a row is a float when it is known
    exactly, else the int n of the n-th step's value (0 for x).  Row i reads
    only rows <= i, so it runs the same steps whatever k is.  Row i of x^n
    is C(n, i) x^(n-i), in closed form; any other power, by repeated squaring.
    """
    steps: list[tuple] = []

    def emit(op, a, b=None):
        if type(a) is float and (b is None or type(b) is float):
            with np.errstate(all="ignore"):  # a constant that overflows is an inf eval rejects
                return float(op(a) if b is None else op(a, b))
        steps.append((op, a, b))
        return len(steps)

    def add(a, b):
        return b if _exact(a, 0.0) else a if _exact(b, 0.0) else emit(np.add, a, b)

    def sub(a, b):
        return a if _exact(b, 0.0) else emit(np.subtract, a, b)

    def mul(a, b):
        if _exact(a, 0.0) or _exact(b, 0.0):
            return 0.0
        return b if _exact(a, 1.0) else a if _exact(b, 1.0) else emit(np.multiply, a, b)

    def power(a, n: int):
        return 1.0 if n == 0 else a if n == 1 else emit(np.power, a, float(n))

    def total(terms):
        return reduce(add, terms, 0.0)

    def product(a, b):
        return [total(mul(a[j], b[i - j]) for j in range(i + 1)) for i in range(k)]

    def quotient(a, b):
        q = [emit(_div, a[0], b[0])]  # checks b0 even where a vanishes
        for i in range(1, k):
            rest = sub(a[i], total(mul(b[j], q[i - j]) for j in range(1, i + 1)))
            q.append(0.0 if _exact(rest, 0.0) else emit(np.divide, rest, b[0]))
        return q

    def series(a, g, i: int, sign: float = 1.0):
        # row i of h with h' = sign * a' * g
        return total(mul(mul(sign * j / i, a[j]), g[i - j]) for j in range(1, i + 1))

    def rows(node: Expr) -> list:
        match node:
            case Const(v):
                return [float(v)] + [0.0] * (k - 1)
            case Var():
                return [0, 1.0, *[0.0] * (k - 2)][:k]
            case Add(l, r) | Sub(l, r):
                return list(map(add if isinstance(node, Add) else sub, rows(l), rows(r)))
            case Mul(l, r):
                return product(rows(l), rows(r))
            case Div(l, r):
                return quotient(rows(l), rows(r))
            case Pow(Var(), n):  # (x + t)^n = sum of C(n, i) x^(n-i) t^i
                return [mul(float(math.comb(n, i)), power(0, n - i)) if i <= n else 0.0
                        for i in range(k)]
            case Pow(b, n):  # by repeated squaring, from the rows of 1
                out, square = rows(Const(1.0)), rows(b)
                while n:
                    if n & 1:
                        out = product(out, square)
                    n >>= 1
                    square = product(square, square) if n else square
                return out
            case Call("exp", a):
                a, g = rows(a), []
                for i in range(k):
                    g.append(emit(np.exp, a[0]) if i == 0 else series(a, g, i))
                return g
            case Call(f, a):
                # u = f(a) and its co-function w: u' = sign a' w, w' = -sign a' u
                a, sign, co = rows(a), *((1.0, np.cos) if f == "sin" else (-1.0, np.sin))
                u, w = [emit(_CALLS[f], a[0])], []
                for i in range(1, k):
                    w.append(emit(co, a[0]) if i == 1 else series(a, u, i - 1, -sign))
                    u.append(series(a, w, i, sign))
                return u
        raise TypeError(f"unknown node {node!r}")

    out = rows(ast)
    consts = [v for _, *ab in steps for v in ab if type(v) is float]
    consts += [v for v in out if type(v) is float]
    slots = iter(range(1, len(consts) + 1))

    def fix(v):  # in the order consts was listed: each constant has its own slot
        return next(slots) if type(v) is float else v if v in (0, None) else len(consts) + v

    return tuple(consts), tuple((op, fix(a), fix(b)) for op, a, b in steps), tuple(map(fix, out))


class _Taylor:
    """The Taylor programs of one parsed expression, compiled once per row
    count on first use; ``taylor(x, orders)`` is its derivatives of the
    orders at x, each shaped like x, from one run of the program for
    k = max(orders) + 1 rows."""

    def __init__(self, ast: Expr):
        self.ast = ast
        self.programs: dict[int, tuple] = {}

    def __call__(self, x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        k = max(orders) + 1
        program = self.programs.get(k) or self.programs.setdefault(k, _compile(self.ast, k))
        consts, steps, outs = program
        vals = [x, *consts]
        for op, i, j in steps:
            vals.append(op(vals[i]) if j is None else op(vals[i], vals[j]))
        out = [vals[outs[d]] * math.factorial(d) if d > 1 else vals[outs[d]] for d in orders]
        return [v if getattr(v, "shape", None) == x.shape else np.full(x.shape, v) for v in out]


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent, one method per rule.  ``run`` is its one scanning
    loop, and it scans with ``str`` predicates, not ``re`` classes: no class
    matches ``isalpha``, and ``\\d`` matches ``isdecimal``, not ``isdigit``,
    so non-ASCII input (README's ``x^٣`` and ``x^²``) reads as before."""

    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.nesting = 0

    def error(self, message: str) -> ExpressionError:
        return ExpressionError(message, self.pos)

    def run(self, accepts: Callable[[str], bool]) -> str:
        """Consume and return the run of characters that ``accepts``."""
        start = self.pos
        while self.pos < len(self.src) and accepts(self.src[self.pos]):
            self.pos += 1
        return self.src[start : self.pos]

    def peek(self) -> str:
        self.run(str.isspace)
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        ast = self.expr()
        if self.peek():
            raise self.error("unexpected trailing input")
        return ast

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Expr:
        # a run of unary minuses, spaced or not, is counted, not recursed into
        minuses = self.run(lambda ch: ch == "-" or ch.isspace()).count("-")
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.run(str.isspace)
            start, digits = self.pos, self.run(str.isdecimal)
            if not digits:
                raise self.error("expected unsigned integer exponent")
            digits = "".join(str(int(d)) for d in digits).lstrip("0") or "0"  # as ASCII
            if len(digits) > 16 or int(digits) > 2**53:  # int() refuses over 4300 digits
                got = digits if len(digits) <= 20 else f"an exponent of {len(digits)} digits"
                raise ExpressionError(f"requires an exponent at most 2^53 = {2**53}: got {got}",
                                      start)
            node = Pow(node, int(digits))
        for _ in range(minuses):
            node = Sub(Const(0.0), node)
        return node

    def base(self) -> Expr:
        ch, name = self.peek(), ""
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            start = self.pos
            name = self.run(str.isalpha)
            if name == "x":
                return Var()
            if name not in _CALLS:
                raise ExpressionError(f"unknown identifier '{name}'", start)
        elif ch != "(":
            raise self.error("expected number, 'x', '(', '-' or function")
        self.take("(")
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self.error(f"requires parentheses and calls nested at most {MAX_NESTING} deep")
        node = self.expr()
        self.take(")")
        self.nesting -= 1
        return Call(name, node) if name else node

    def number(self) -> Expr:
        start = self.pos  # base has skipped the spaces
        self.run(str.isdigit)
        self.pos += self.src.startswith(".", self.pos)
        self.run(str.isdigit)
        mark = self.pos
        if self.src.startswith(("e", "E"), mark):
            self.pos += 1 + self.src.startswith(("+", "-"), mark + 1)
            if not self.run(str.isdigit):
                self.pos = mark
        text = self.src[start : self.pos]
        try:
            return Const(float(text))
        except ValueError:
            raise ExpressionError(f"invalid number '{text}'", start) from None


def parse(src: str) -> Expr:
    """Parse an expression in the grammar; raises ExpressionError with position."""
    ast = _Parser(src).parse()
    depth, level = 0, [ast]
    while level:  # the levels of the tree, counted without recursion
        depth += 1
        level = [v for node in level for v in vars(node).values() if isinstance(v, Expr)]
    if depth > MAX_DEPTH:
        raise ExpressionError(f"requires an expression tree at most {MAX_DEPTH} levels deep, "
                              f"one per operator of a chain: got {depth}")
    return ast


# ---------------------------------------------------------------------------
# Smooth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothFunction:
    """Function with exact derivatives up to ``max_order``.

    ``evaluator(x, orders)`` returns one array per order in ``orders``, a
    nonempty tuple: the d-th derivative at x for each d, shaped like x.
    Instances are immutable and safe to share.
    """

    evaluator: Callable[[np.ndarray, tuple[int, ...]], Sequence[np.ndarray]]
    max_order: int
    description: str

    def eval(self, x, deriv: int | Sequence[int] = 0):
        """The deriv-th derivative at x: a float for scalar x, else an array
        shaped like x.

        ``deriv`` may also be a sequence of orders: the result then stacks
        one array per order along a new first axis, as ``eval_spline_many``
        does.  The evaluator is called once, with every order, and not at
        all for an empty sequence.  Every value must be finite; the error
        names the first nonfinite one, its order and x.
        """
        single = isinstance(deriv, (int, np.integer))
        orders = (deriv,) if single else tuple(deriv)
        for d in orders:
            if not 0 <= d <= self.max_order:
                raise ValueError(
                    f"requires 0 <= deriv <= max_order={self.max_order}: got {d}"
                )
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self.evaluator(arr, orders) if orders else ()
        if len(rows) != len(orders) or any(np.shape(v) != arr.shape for v in rows):
            raise ValueError(
                f"requires the evaluator of {self.description} to return one array "
                f"shaped like x per order: got shapes {[np.shape(v) for v in rows]} "
                f"for orders {orders} at x of shape {arr.shape}"
            )
        out = np.empty((len(orders), *arr.shape))
        for i, v in enumerate(rows):
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


@lru_cache(maxsize=64)
def from_expression(src: str) -> SmoothFunction:
    """Parse the expression and wrap it with its Taylor derivatives; the
    last 64 sources are kept with their programs, so that repeated CLI calls
    compile an expression once."""
    return SmoothFunction(_Taylor(parse(src)), MAX_SYMBOLIC_ORDER, src)


def _sin4x(x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    return [4.0**d * np.sin(4.0 * x + d * np.pi / 2.0) for d in orders]


def _x6(x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    return [
        math.factorial(6) / math.factorial(6 - d) * x ** (6 - d) if d <= 6 else np.zeros_like(x)
        for d in orders
    ]


def _runge(x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    # 1/(1+25x^2) = Im 1/(5x - i); the d-th derivative follows from the
    # complex power rule and stays exact for any order.
    z = 5.0 * x - 1j
    return [
        (5.0**d) * ((-1.0) ** d) * math.factorial(d) * np.imag(z ** (-(d + 1)))
        for d in orders
    ]


def _exp(x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    return [np.exp(x)] * len(orders)


_BUILTINS: dict[str, tuple[Callable, int, str]] = {
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
