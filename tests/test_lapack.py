"""The LAPACK layer gives scipy.linalg's bits by both of its load routes."""

import importlib
import importlib.util
import sys

import numpy as np
import pytest
import scipy.linalg

from ritzspline import _lapack
from ritzspline.eigenproblem import constrained_space
from ritzspline.mesh import Breakpoints, make_space
from ritzspline.quadrature import gram_matrix


@pytest.fixture(params=["direct", "scipy.linalg"])
def lapack(request, monkeypatch):
    """``_lapack`` as loaded by each route: the fallback is forced by making
    the file load raise.  The direct load is restored afterwards."""
    if request.param == "scipy.linalg":
        def unloadable(*args, **kwargs):
            raise ImportError("no file load")

        monkeypatch.setattr(importlib.util, "spec_from_file_location", unloadable)
    try:
        importlib.reload(_lapack)
        monkeypatch.undo()
        assert _lapack.ROUTE == request.param
        yield _lapack
    finally:
        monkeypatch.undo()
        importlib.reload(_lapack)


def _bands():
    """Gram bands of bandwidth 1, 2 and 20 (p = 1, 2 and 20)."""
    xi = Breakpoints(np.array([0.0, 0.1, 0.35, 0.4, 0.7, 0.85, 1.0]))
    return [gram_matrix(make_space(p, p - 1, xi)).bands for p in (1, 2, 20)]


def _pencil(p, elements):
    """The dense stiffness and mass of the clamped beam, as ``eig`` builds them."""
    space, keep = constrained_space(p, Breakpoints.uniform(elements))
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    return [gram_matrix(space, d).principal(lo, hi).to_dense() for d in (2, 0)]


def test_direct_load_leaves_sys_modules_alone(monkeypatch):
    """Without the package, a module left in ``sys.modules`` would never be
    bound on ``scipy.linalg`` by a later import of it."""
    assert _lapack.ROUTE == "direct"
    assert _lapack.dgemm is scipy.linalg.blas.dgemm
    assert _lapack._flapack.dpbsv is scipy.linalg.lapack.dpbsv
    assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
    names = ["scipy.linalg._flapack", "scipy.linalg._fblas"]
    for name in names:  # as in a process that has not imported scipy.linalg
        monkeypatch.delitem(sys.modules, name)
    route, flapack, fblas = _lapack._load()
    assert route == "direct" and fblas.dgemm is _lapack.dgemm
    assert not [name for name in names if name in sys.modules]


def test_solveh_banded_gives_scipys_bits(lapack):
    rng = np.random.default_rng(7)
    for bands in _bands():
        before = bands.copy()
        for rhs in (rng.normal(size=bands.shape[1]), rng.normal(size=(bands.shape[1], 3))):
            want = scipy.linalg.solveh_banded(bands, rhs, lower=True)
            got = lapack.solveh_banded(bands, rhs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(bands, before)


@pytest.mark.parametrize("p,elements", [(3, 20), (5, 200), (8, 400)])
def test_eigh_gives_scipys_bits(lapack, p, elements):
    stiff, mass = _pencil(p, elements)
    want = scipy.linalg.eigh(stiff, mass)
    got = lapack.eigh(stiff, mass)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes() and g.flags.f_contiguous == w.flags.f_contiguous


def test_eigh_checks_its_input():
    stiff, mass = _pencil(3, 8)
    bad = stiff.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.eigh(bad, mass)
    with pytest.raises(ValueError, match='expected square "a" matrix'):
        _lapack.eigh(stiff[:, 1:], mass)
    with pytest.raises(ValueError, match=r"wrong b dimensions \(6, 6\), should be \(7, 7\)"):
        _lapack.eigh(stiff, mass[1:, 1:])
    indefinite = mass.copy()
    indefinite[2, 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError,
                       match="leading minor of order 3 of B is not positive definite"):
        _lapack.eigh(stiff, indefinite)


def test_solveh_banded_checks_shapes():
    bands = np.array([[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="shapes of ab and b are not compatible"):
        _lapack.solveh_banded(bands, np.ones(4))
