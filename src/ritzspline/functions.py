"""Smooth test functions with exact derivatives.

Two sources of functions: a builtin registry with closed-form derivatives
of any order, and a small expression language for CLI input,

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' unsigned-integer)?
    base   := number | 'x' | '(' expr ')' | func '(' expr ')'

with func one of sin, cos, exp.

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


def _degree(node: Expr) -> float:
    """Polynomial degree of ``node`` in x, as the parser built it (inf for
    anything else): the rows above it compile to exact zeros."""
    match node:
        case Const(_):
            return 0
        case Var():
            return 1
        case Add(l, r) | Sub(l, r):
            return max(_degree(l), _degree(r))
        case Mul(l, r):
            return _degree(l) + _degree(r)
        case Div(l, r):
            return _degree(l) if _degree(r) == 0 else math.inf
        case Pow(b, n):
            return n * _degree(b) if n else 0
        case Call(_, a):
            return 0 if _degree(a) == 0 else math.inf
    raise TypeError(f"unknown node {node!r}")


def _exact(v, c: float) -> bool:
    return type(v) is float and v == c


def _compile(ast: Expr, k: int) -> tuple[tuple[float, ...], tuple, tuple[int, ...]]:
    """Straight-line program for the rows f^(i)(x)/i!, i < k, of ``ast``.

    Returns ``(consts, steps, outs)``.  A run keeps x in slot 0, the
    constants in the next slots, then the value of each step ``(op, i, j)``:
    ``op(slot i, slot j)``, or ``op(slot i)`` when j is None; ``outs`` names
    the slot of each row.  While compiling, a row is a float when it is known
    exactly, else the int n of the n-th step's value (0 for x).  Row i reads
    only rows <= i, so it runs the same steps whatever k is.
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
            case Pow(b, n) if n == 0 or _degree(b) <= 1:
                b = rows(b)  # (b0 + b1 t)^n = sum of C(n, i) b1^i b0^(n-i) t^i
                slope = b[1] if k > 1 else 0.0
                return [
                    mul(mul(float(math.comb(n, i)), power(slope, i)), power(b[0], n - i))
                    if i <= n else 0.0
                    for i in range(k)
                ]
            case Pow(b, n):  # by repeated squaring
                out, square = None, rows(b)
                while n:
                    if n & 1:
                        out = square if out is None else product(out, square)
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
    count on first use; ``taylor(x, d)`` is its d-th derivative at x."""

    def __init__(self, ast: Expr):
        self.ast = ast
        self.programs: dict[int, tuple] = {}

    def __call__(self, x: np.ndarray, d: int) -> np.ndarray:
        return self.derivatives(x, (d,))[0]

    def derivatives(self, x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        """The derivatives of the orders at x, each shaped like x, from one
        run of the program for k = max(orders) + 1 rows."""
        if not orders:
            return []
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
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected unsigned integer exponent")
            node = Pow(node, int(self.src[start : self.pos]))
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
                return Var()
            if name in _CALLS:
                self.take("(")
                node = self.expr()
                self.take(")")
                return Call(name, node)
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
            return Const(float(text))
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
        expression serves all of them from one program run.  Every value must be
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
        """The n-th derivative as a new function (orders shift down by n);
        ``self`` for n = 0."""
        if not 0 <= n <= self.max_order:
            raise ValueError(f"requires 0 <= n <= max_order={self.max_order}")
        if n == 0:
            return self
        parent = self.evaluator
        return SmoothFunction(
            lambda x, d: parent(x, d + n),
            self.max_order - n,
            f"d^{n}/dx^{n} of {self.description}",
        )


class _Expression(SmoothFunction):
    """A parsed expression: the orders of one ``eval`` call come from one
    run of its Taylor program."""

    def _derivatives(self, x: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
        return self.evaluator.derivatives(x, orders)


@lru_cache(maxsize=64)
def from_expression(src: str) -> SmoothFunction:
    """Parse the expression and wrap it with its Taylor derivatives; the
    last 64 sources are kept with their programs, so that repeated CLI calls
    compile an expression once."""
    return _Expression(_Taylor(parse(src)), MAX_SYMBOLIC_ORDER, src)


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
