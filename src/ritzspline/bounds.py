"""Explicit constants and a priori error coefficients for spline projection.

Every function returns the coefficient multiplying the Sobolev seminorm of
the approximated function; callers supply the seminorm separately.
Factorial ratios go through log-gamma so large parameter ranges do not
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundQuery:
    """Parameter tuple for the error-coefficient evaluators.

    p, k: degree and smoothness of the spline space; q: projector order;
    l: derivative order of the measured error; r: Sobolev order of the
    function; h, h_min: largest and smallest knot distances; length: b - a.
    """

    p: int
    k: int
    q: int
    l: int
    r: int
    h: float
    h_min: float | None = None
    length: float | None = None

    def __post_init__(self) -> None:
        if not -1 <= self.k <= self.p - 1:
            raise ValueError(f"requires -1 <= k <= p-1: got k={self.k}, p={self.p}")
        if self.l < 0:
            raise ValueError("requires l >= 0")
        if not 0 <= self.q <= self.k + 1:
            raise ValueError(f"requires 0 <= q <= k+1: got q={self.q}, k={self.k}")
        if self.q > self.r:
            raise ValueError(f"requires q <= r: got q={self.q}, r={self.r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"requires h finite and > 0: got h={self.h}")
        if self.h_min is not None and not 0 < self.h_min <= self.h:  # finite as h is
            raise ValueError(f"requires 0 < h_min <= h: got h_min={self.h_min}, h={self.h}")
        if self.length is not None and not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"requires length finite and > 0: got length={self.length}")


def _power(name: str, base: float, exponent: int) -> float:
    """base ** exponent for the positive parameter ``name``, a power that
    double precision cannot hold (an overflow or a zero) named as a
    precondition on it."""
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if value == 0.0 or math.isinf(value):
        power = f"({name})^{exponent}" if "/" in name else f"{name}^{exponent}"
        raise ValueError(f"requires {power} inside the double range: got {name}={base:g}")
    return value


def _held(value: float, name: str) -> float:
    """value, the quantity ``name``; one that double precision does
    not hold (an overflow, a nan or an underflow to 0) named as a
    precondition on it."""
    if value == 0.0 or not math.isfinite(value):
        raise ValueError(f"requires {name} inside the double range: got {value:g}")
    return value


def _projection_factors(p: int, k: int, r: int) -> tuple[tuple[tuple[float, int], ...], float]:
    """The checked branches of :func:`projection_constant`: powers (base,
    exponent) and the log of a factorial ratio whose square root is the
    last factor, so that the constant and its log share one formula."""
    if r < 0:
        raise ValueError("requires r >= 0")
    if p < r - 1:
        raise ValueError(f"requires p >= r-1: got p={p}, r={r}")
    if not -1 <= k <= p - 1:
        raise ValueError(f"requires -1 <= k <= p-1: got k={k}, p={p}")
    if k == p - 1:
        return ((math.pi, -r),), 0.0
    try:
        base = 1.0 / math.sqrt((p - k) * (p - k + 1))
    except OverflowError:
        raise ValueError(
            f"requires (p-k)(p-k+1) inside the double range: got p={p}, k={k}") from None
    if k >= r - 2:
        return ((0.5, r), (base, r)), 0.0
    # (p+1-r)! / (p-1+r-2k)! via lgamma
    return ((0.5, r), (base, k + 1)), math.lgamma(p + 2 - r) - math.lgamma(p + r - 2 * k)


def _projection_constant(p: int, k: int, r: int) -> float:
    """:func:`projection_constant`, 0 where it underflows: a term of a
    coefficient, whose own value is checked."""
    powers, log_ratio = _projection_factors(p, k, r)
    try:
        value = math.prod(b**e for b, e in powers)
    except OverflowError:  # an exponent beyond a float; every power is at most 1
        value = 0.0
    return value * math.sqrt(math.exp(log_ratio))


def projection_constant(p: int, k: int, r: int) -> float:
    """Constant in the L2-projection bound: error <= const * h^r * |u|_{H^r}.

    Maximal smoothness gives (1/pi)^r; lower smoothness has two branches
    depending on whether k >= r - 2.
    """
    return _held(_projection_constant(p, k, r), f"c at p={p}, k={k}, r={r}")


def _log_projection_constant(p: int, k: int, r: int) -> float:
    """log of :func:`projection_constant`, finite where the constant
    underflows."""
    powers, log_ratio = _projection_factors(p, k, r)
    return sum(e * math.log(b) for b, e in powers) + 0.5 * log_ratio


def projection_constant_upper(p: int, k: int, r: int) -> float:
    """Stirling-based upper bound for the k <= p-2 projection constant."""
    if k > p - 2:
        raise ValueError("the simplified bound is stated only for k <= p-2")
    if r < 0:
        raise ValueError("requires r >= 0")
    if k >= r - 2:
        return (0.5 / (p - k)) ** r
    return (math.e / (4.0 * (p - k))) ** r


def inverse_constant(p: int) -> float:
    """Constant d_p in the polynomial inverse inequality |g'| <= d_p/(b-a) |g|."""
    if p < 0:
        raise ValueError("requires p >= 0")
    try:
        return math.sqrt(p * (p + 1) * (p + 2) * (p + 3) / 2.0)
    except OverflowError:
        raise ValueError(f"requires p(p+1)(p+2)(p+3)/2 inside the double range: got p={p}") from None


def _inverse_product(lo: int, hi: int) -> float:
    """d_lo d_(lo+1) ... d_(hi-1), 1 for an empty range."""
    return math.prod(inverse_constant(i) for i in range(lo, hi))


def error_coefficient(query: BoundQuery) -> float:
    """Coefficient of |u|_{H^r} bounding |d^l (u - Qu)| for l <= q.

    Value c_{p-q,k-q,q-l} c_{p-q,k-q,r-q} h^{r-l}, valid for
    p >= max(r-1, 2q-l-1).
    """
    p, k, q, l, r = query.p, query.k, query.q, query.l, query.r
    if l > q:
        raise ValueError(f"requires l <= q: got l={l}, q={q}")
    if p < r - 1:
        raise ValueError(f"requires p >= r-1: got p={p}, r={r}")
    if p < 2 * q - l - 1:
        raise ValueError(f"requires p >= 2q-l-1: got p={p}, q={q}, l={l}")
    return _held(
        _projection_constant(p - q, k - q, q - l)
        * _projection_constant(p - q, k - q, r - q)
        * _power("h", query.h, r - l),
        f"the error coefficient at l={l}",
    )


def broken_error_coefficient(query: BoundQuery) -> float:
    """Coefficient of |u|_{H^r} bounding the broken norm of d^l (u - Qu),
    for derivative orders above the projector order (q < l <= r).

    Requires h_min; the mesh-ratio term scales with (h/h_min)^(l-q).
    """
    p, k, q, l, r = query.p, query.k, query.q, query.l, query.r
    if not q < l <= r:
        raise ValueError(f"requires q < l <= r: got q={q}, l={l}, r={r}")
    if p < r - 1:
        raise ValueError(f"requires p >= r-1: got p={p}, r={r}")
    if query.h_min is None:
        raise ValueError("requires h_min")
    m = max(2 * r - q - 1, p)
    prod = _inverse_product(m - l + 1, m - q + 1)
    ratio = _power("h/h_min", query.h / query.h_min, l - q)
    bracket = _projection_constant(m - r, -1, r - l) + (
        _projection_constant(m - r, -1, r - q)
        + _projection_constant(p - q, k - q, r - q)
    ) * ratio * prod
    return _held(bracket * _power("h", query.h, r - l), f"the broken coefficient at l={l}")


def difference_coefficient(query: BoundQuery) -> float:
    """Coefficient of |u|_{H^r} bounding |d^l (Ru - Qu)|.

    Exactly zero for l >= q; otherwise c_{p-q,k-q,q} c_{p-q,k-q,r-q} h^r
    times the inverse-inequality product over the interval length, valid
    for p >= max(r-1, 2q-1).
    """
    p, k, q, l, r = query.p, query.k, query.q, query.l, query.r
    if l >= q:
        return 0.0
    if p < r - 1:
        raise ValueError(f"requires p >= r-1: got p={p}, r={r}")
    if p < 2 * q - 1:
        raise ValueError(f"requires p >= 2q-1: got p={p}, q={q}")
    value = (
        _projection_constant(p - q, k - q, q)
        * _projection_constant(p - q, k - q, r - q)
        * _power("h", query.h, r)
    )
    if l >= 1:
        if query.length is None:
            raise ValueError("requires the interval length for l >= 1")
        value *= _inverse_product(q - l, q) / _power("length", query.length, l)
    return _held(value, f"the difference coefficient at l={l}")


def _schultz_factors(q: int, k: int, l: int) -> tuple[int, int, int]:
    """(n, m, e) with :func:`schultz_constant` = n! / (m! pi^e)."""
    if q < 1:
        raise ValueError("requires q >= 1")
    if not q - 1 <= k <= 2 * q - 2:
        raise ValueError(f"requires q-1 <= k <= 2q-2: got q={q}, k={k}")
    if not 0 <= l <= q:
        raise ValueError(f"requires 0 <= l <= q: got l={l}")
    return k + 2 - q, max(k + l + 2 - 2 * q, 0), q - l


def schultz_constant(q: int, k: int, l: int) -> float:
    """Constant of the classical knot-interpolating spline projector
    (degree 2q-1, Sobolev order 2q): (k+2-q)! / ((k+l+2-2q)! pi^(q-l)), the
    factorial in the denominator dropped for l <= 2q-k-2; 1 at l = q."""
    n, m, e = _schultz_factors(q, k, l)
    return math.factorial(n) / (math.factorial(m) * math.pi**e)


def schultz_log_gap(q: int, k: int) -> float:
    """log of the knot-interpolation constant minus log of ours, at l = 0,
    from their logs: finite where either constant overflows or underflows.

    Nonnegative across the whole admissible range: the boundary-interpolating
    projector never carries the larger constant.
    """
    n, m, e = _schultz_factors(q, k, 0)
    log_schultz = math.lgamma(n + 1) - math.lgamma(m + 1) - e * math.log(math.pi)
    return log_schultz - _log_projection_constant(q - 1, k - q, q)
