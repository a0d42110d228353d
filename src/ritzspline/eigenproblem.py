"""Discrete biharmonic eigenproblem on maximally smooth splines.

Clamped boundary conditions (value and slope at both ends) are imposed by
dropping the first two and last two functions of the clamped B-spline
basis, which are the only ones carrying endpoint data; stiffness and mass
are restricted to the remaining functions in banded storage.  The
generalized symmetric-definite eigenproblem (stiffness vs. mass) is solved
densely by LAPACK through scipy, since scipy has no banded generalized
driver; discrete eigenvalues then bound the continuous ones from above.
Every eigenpair is checked by its normwise backward error, computed on the
dense pencil the eigensolver was given, with two matrix products by
scipy's BLAS for all pairs.  The spectral cutoff
h * lambda^(1/4) < pi marks the modes expected to be resolved by the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .analysis import _csv, _dumps
from .mesh import Breakpoints, SplineSpace, make_space
from .quadrature import default_order, grid_table, gram_bands

# Largest accepted normwise backward error of an eigenpair; a backward
# stable solver stays within a small multiple of eps (about 24 eps seen
# for p <= 8 and up to 800 elements).
BACKWARD_ERROR_TOL = 1e-12


def eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's dense generalized symmetric-definite eigensolver, with scipy
    imported on the first call: loading it takes longer than a small solve."""
    from scipy.linalg import eigh as scipy_eigh

    return scipy_eigh(a, b)


def _sech(m: float) -> float:
    """1 / cosh(m) for m >= 0, written with exp(-m) so it cannot overflow."""
    e = math.exp(-m)
    return 2.0 * e / (1.0 + e * e)


@lru_cache(maxsize=None)
def _beam_root(i: int) -> float:
    """i-th root, i >= 1, of cos(mu) cosh(mu) = 1, the clamped-beam frequency equation.

    Solved as cos(mu) = sech(mu) (overflow-free) by a bisection-safeguarded
    Newton iteration from the asymptotic start (2i+1) pi / 2, bracketed by
    mu -+ 0.5, where cos = -+sin 0.5 and sech <= 0.03.
    """
    mu = (2 * i + 1) * math.pi / 2.0
    lo, hi = mu - 0.5, mu + 0.5

    def f(m: float) -> float:
        return math.cos(m) - _sech(m)

    flo = f(lo)
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


def resolved_modes(h: float, references: np.ndarray) -> np.ndarray:
    """The spectral cutoff: True where h * lambda^(1/4) is strictly below pi."""
    return h * np.asarray(references, dtype=float) ** 0.25 < math.pi


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Discrete spectrum of n = ``lambdas.size`` modes, with the reference
    spectra of those n modes, errors, and outlier bookkeeping derived."""

    p: int
    h: float
    threshold: float
    lambdas: np.ndarray  # discrete, ascending
    backward_error: float  # worst over the eigenpairs, see backward_errors

    @property
    def n(self) -> int:
        return self.lambdas.size

    @cached_property
    def references(self) -> np.ndarray:
        """The transcendental clamped-beam eigenvalues."""
        return clamped_beam_eigenvalues(self.n)

    @cached_property
    def asymptotic(self) -> np.ndarray:
        return asymptotic_eigenvalues(self.n)

    @cached_property
    def rel_errors(self) -> np.ndarray:
        return np.abs(self.lambdas - self.references) / self.references

    @cached_property
    def predicted_flags(self) -> np.ndarray:
        """True where the mode is predicted well-resolved (not an outlier)."""
        return resolved_modes(self.h, self.references)

    @cached_property
    def observed_flags(self) -> np.ndarray:
        """True where the relative eigenvalue error exceeds the threshold."""
        return self.rel_errors > self.threshold

    @property
    def predicted_non_outliers(self) -> int:
        return int(np.sum(self.predicted_flags))

    @property
    def predicted_non_outliers_asymptotic(self) -> int:
        return int(np.sum(resolved_modes(self.h, self.asymptotic)))

    @property
    def observed_outliers(self) -> list[int]:
        """1-based indices of modes exceeding the error threshold."""
        return [int(i) + 1 for i in np.nonzero(self.observed_flags)[0]]

    def to_csv(self) -> str:
        return _csv("index,lambda_h,lambda_ref,rel_err,predicted_flag,observed_flag", zip(
            range(1, self.lambdas.size + 1),
            self.lambdas.tolist(),
            self.references.tolist(),
            self.rel_errors.tolist(),
            self.predicted_flags.astype(int).tolist(),
            self.observed_flags.astype(int).tolist(),
        ))

    def to_json(self) -> str:
        payload = {
            "p": self.p,
            "h": self.h,
            "n": self.n,
            "threshold": self.threshold,
            "predicted_non_outliers": self.predicted_non_outliers,
            "predicted_non_outliers_asymptotic": self.predicted_non_outliers_asymptotic,
            "observed_outliers": self.observed_outliers,
            "lambda_h": self.lambdas.tolist(),
            "lambda_ref": self.references.tolist(),
            "lambda_asymptotic": self.asymptotic.tolist(),
            "rel_err": self.rel_errors.tolist(),
            "predicted_flag": self.predicted_flags.tolist(),
            "observed_flag": self.observed_flags.tolist(),
        }
        return _dumps(payload) + "\n"


def backward_errors(
    k: np.ndarray, m: np.ndarray, lam: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """Normwise backward error of each eigenpair (lam_i, v_i) of K v = lam M v:

        eta_i = |K v_i - lam_i M v_i| / ((|K|_1 + |lam_i| |M|_1) |v_i|),

    the smallest relative perturbation of K and M that makes the pair exact,
    up to the choice of norms.  K and M are dense.  The residuals of all
    pairs take two ``dgemm`` products: M V is scaled by lam column by
    column, and K V - (M V) diag(lam) is then formed in that buffer.  Both
    products go through scipy's BLAS, the library the eigensolver ran in:
    numpy's ``@`` calls numpy's own BLAS, whose thread pool then competes
    with scipy's for the cores (on 2 cores a pass of the benchmark's
    ``eig`` runs took two to four times as long).  The matrices are passed
    transposed, so a C-ordered K or M is read in place, and ``eigh``'s
    Fortran-ordered eigenvectors are not copied either.
    """
    from scipy.linalg.blas import dgemm  # scipy is loaded: eigh ran first

    resid = dgemm(1.0, m.T, vecs, trans_a=1)
    resid *= lam
    resid = dgemm(1.0, k.T, vecs, beta=-1.0, c=resid, trans_a=1, overwrite_c=1)
    scale = np.abs(k).sum(axis=0).max() + np.abs(lam) * np.abs(m).sum(axis=0).max()
    return np.linalg.norm(resid, axis=0) / (scale * np.linalg.norm(vecs, axis=0))


def solve_biharmonic(p: int, xi: Breakpoints, threshold: float = 0.10) -> SpectrumReport:
    """Solve the clamped biharmonic eigenproblem on the constrained space.

    Assembles the order-2 stiffness and the mass matrices, restricts both to
    the constrained basis in banded storage, and solves the generalized
    symmetric-definite problem densely.  The one dense copy of each matrix
    serves both the eigensolver and the residual check.  Every pair must
    have a normwise backward error (see :func:`backward_errors`) below
    BACKWARD_ERROR_TOL; this checks the eigensolver, not the assembly.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("requires threshold in (0, 1]")
    space, keep = constrained_space(p, xi)
    lo, hi = int(keep[0]), int(keep[-1]) + 1  # keep is one contiguous range
    n = default_order(p)  # the exact grid of both matrices, tabulated once
    table = grid_table([space], [n], (2, 0))
    stiff = gram_bands(table, 2).principal(lo, hi).to_dense()
    mass = gram_bands(table, 0).principal(lo, hi).to_dense()
    lam, vecs = eigh(stiff, mass)  # ascending; neither matrix is overwritten
    eta = backward_errors(stiff, mass, lam, vecs)
    worst = int(np.argmax(eta))
    if eta[worst] > BACKWARD_ERROR_TOL:
        raise RuntimeError(
            f"eigenpair {worst} backward error {eta[worst]:.3e} exceeds "
            f"{BACKWARD_ERROR_TOL:.0e}; the eigensolver returned an inaccurate pair"
        )
    return SpectrumReport(p, xi.h, threshold, lam, float(eta[worst]))
