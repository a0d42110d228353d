"""Discrete biharmonic eigenproblem on maximally smooth splines.

Clamped boundary conditions (value and slope at both ends) are imposed by
dropping the first two and last two functions of the clamped B-spline
basis, which are the only ones carrying endpoint data.  The generalized
symmetric-definite eigenproblem (stiffness vs. mass) is reduced through a
Cholesky factorization of the mass matrix and solved by an orthogonal
iterative method (LAPACK through scipy); discrete eigenvalues then bound
the continuous ones from above.  The spectral cutoff h * lambda^(1/4) < pi
marks the modes expected to be resolved by the mesh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh

from .analysis import _fmt
from .mesh import Breakpoints, SplineSpace, make_space
from .quadrature import gram_matrix, resolve_order


def _sech(m: float) -> float:
    """1 / cosh(m) for m >= 0, written with exp(-m) so it cannot overflow."""
    e = math.exp(-m)
    return 2.0 * e / (1.0 + e * e)


@lru_cache(maxsize=None)
def _beam_root(i: int) -> float:
    """i-th root of cos(mu) cosh(mu) = 1, the clamped-beam frequency equation.

    Solved as cos(mu) = sech(mu) (overflow-free) by a bisection-safeguarded
    Newton iteration from the asymptotic start (2i+1) pi / 2.
    """
    mu = (2 * i + 1) * math.pi / 2.0
    lo, hi = mu - 0.5, mu + 0.5

    def f(m: float) -> float:
        return math.cos(m) - _sech(m)

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:  # asymptotic start is already extremely close
        lo, hi = mu - 1.0, mu + 1.0
        flo, fhi = f(lo), f(hi)
    x = mu
    for _ in range(200):
        fx = f(x)
        if fx * flo <= 0:
            hi = x
        else:
            lo, flo = x, fx
        dfx = -math.sin(x) + math.tanh(x) * _sech(x)
        step = fx / dfx if dfx != 0 else hi - lo
        nxt = x - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) < 1e-15 * max(1.0, abs(x)):
            x = nxt
            break
        x = nxt
    return x


def clamped_beam_eigenvalues(count: int) -> np.ndarray:
    """First `count` eigenvalues of u'''' = lambda u with clamped ends on [0,1]."""
    return np.array([_beam_root(i) ** 4 for i in range(1, count + 1)])


def asymptotic_eigenvalues(count: int) -> np.ndarray:
    """The classical approximation ((2i+1) pi / 2)^4."""
    i = np.arange(1, count + 1)
    return ((2 * i + 1) * np.pi / 2.0) ** 4


def constrained_space(p: int, xi: Breakpoints) -> tuple[SplineSpace, np.ndarray]:
    """Maximally smooth space with clamped constraints; returns the kept indices.

    In the clamped basis only the two outermost functions per endpoint have
    nonzero value or slope there, so the constrained space is spanned by the
    remaining dim - 4 functions.
    """
    if p < 2:
        raise ValueError(
            "requires p >= 2: four boundary constraints exceed the endpoint "
            "basis functions otherwise"
        )
    space = make_space(p, p - 1, xi)
    if space.dim < 5:
        raise ValueError("mesh too coarse: constrained space would be empty")
    keep = np.arange(2, space.dim - 2)
    return space, keep


def predict_non_outliers(h: float, references: np.ndarray) -> int:
    """Number of reference eigenvalues with h * lambda^(1/4) strictly below pi."""
    if h <= 0:
        raise ValueError("requires h > 0")
    lam = np.asarray(references, dtype=float)
    return int(np.sum(h * lam**0.25 < math.pi))


@dataclass(frozen=True)
class SpectrumReport:
    """Discrete spectrum with references, errors, and outlier bookkeeping."""

    p: int
    h: float
    n: int
    threshold: float
    lambdas: np.ndarray  # discrete, ascending
    references: np.ndarray  # transcendental clamped-beam eigenvalues
    asymptotic: np.ndarray

    @property
    def rel_errors(self) -> np.ndarray:
        return np.abs(self.lambdas - self.references) / self.references

    @property
    def predicted_flags(self) -> np.ndarray:
        """True where the mode is predicted well-resolved (not an outlier)."""
        return self.h * self.references**0.25 < math.pi

    @property
    def observed_flags(self) -> np.ndarray:
        """True where the relative eigenvalue error exceeds the threshold."""
        return self.rel_errors > self.threshold

    @property
    def predicted_non_outliers(self) -> int:
        return int(np.sum(self.predicted_flags))

    @property
    def predicted_non_outliers_asymptotic(self) -> int:
        return predict_non_outliers(self.h, self.asymptotic)

    @property
    def observed_outliers(self) -> list[int]:
        """1-based indices of modes exceeding the error threshold."""
        return [int(i) + 1 for i in np.nonzero(self.observed_flags)[0]]

    def to_csv(self) -> str:
        lines = ["index,lambda_h,lambda_ref,rel_err,predicted_flag,observed_flag"]
        for i in range(self.n):
            lines.append(
                ",".join(
                    [
                        str(i + 1),
                        _fmt(self.lambdas[i]),
                        _fmt(self.references[i]),
                        _fmt(self.rel_errors[i]),
                        str(int(self.predicted_flags[i])),
                        str(int(self.observed_flags[i])),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "p": self.p,
            "h": self.h,
            "n": self.n,
            "threshold": self.threshold,
            "predicted_non_outliers": self.predicted_non_outliers,
            "predicted_non_outliers_asymptotic": self.predicted_non_outliers_asymptotic,
            "observed_outliers": self.observed_outliers,
            "lambda_h": list(self.lambdas),
            "lambda_ref": list(self.references),
            "lambda_asymptotic": list(self.asymptotic),
            "rel_err": list(self.rel_errors),
            "predicted_flag": [bool(v) for v in self.predicted_flags],
            "observed_flag": [bool(v) for v in self.observed_flags],
        }
        return json.dumps(payload, indent=2) + "\n"


def solve_biharmonic(p: int, xi: Breakpoints, threshold: float = 0.10) -> SpectrumReport:
    """Solve the clamped biharmonic eigenproblem on the constrained space.

    Assembles the order-2 stiffness and the mass matrices, restricts both to
    the constrained basis, and solves the generalized symmetric-definite
    problem; each returned pair is validated against the residual bound
    |K v - lambda M v| <= 1e-8 lambda |v|_M.
    """
    space, keep = constrained_space(p, xi)
    n_quad = resolve_order(2 * p + 2)
    stiff = gram_matrix(space, 2, n_quad).to_dense()[np.ix_(keep, keep)]
    mass = gram_matrix(space, 0, n_quad).to_dense()[np.ix_(keep, keep)]
    lam, vecs = eigh(stiff, mass)
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    for i in range(lam.size):
        v = vecs[:, i]
        resid = np.linalg.norm(stiff @ v - lam[i] * (mass @ v))
        vnorm = math.sqrt(float(v @ (mass @ v)))
        if resid > 1e-8 * max(lam[i], 1.0) * vnorm:
            raise RuntimeError(
                f"eigenpair {i} residual {resid:.3e} exceeds tolerance; "
                "assembly or factorization is broken"
            )
    n = lam.size
    return SpectrumReport(
        p=p,
        h=xi.h,
        n=n,
        threshold=threshold,
        lambdas=lam,
        references=clamped_beam_eigenvalues(n),
        asymptotic=asymptotic_eigenvalues(n),
    )


def outlier_report(p: int, xi: Breakpoints, error_threshold: float = 0.10) -> SpectrumReport:
    """Spectrum report juxtaposing predicted and observed outliers."""
    if not 0.0 < error_threshold <= 1.0:
        raise ValueError("requires threshold in (0, 1]")
    return solve_biharmonic(p, xi, threshold=error_threshold)
