"""Every LAPACK and BLAS call of the package, from scipy's compiled wrappers.

The package calls four routines: ``dpbsv`` (or ``dptsv`` at bandwidth 1)
for the banded SPD solves of the projectors, and ``dsygvd`` and ``dgemm``
for the clamped-beam eigenproblem.  They live in scipy's ``_flapack`` and
``_fblas`` extension modules, which are loaded here from their files
without importing the ``scipy.linalg`` package: that import takes about
0.2 s, far longer than the operation of one CLI run.  If the direct load
fails in any way (the modules are private to scipy, so their place may
change), the same two modules are taken through ``scipy.linalg``, and every
call below runs the same compiled code either way.  ``ROUTE`` says which
way was taken: ``"direct"`` or ``"scipy.linalg"``.

The wrappers keep the checks and the LAPACK arguments of
``scipy.linalg.solveh_banded(..., lower=True)`` and ``scipy.linalg.eigh``
on float64 input, so they return the same bits.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

import numpy as np
from numpy.linalg import LinAlgError  # scipy.linalg.LinAlgError is this class


def _from_file(directory: Path, name: str) -> ModuleType:
    """The extension module ``scipy.linalg.<name>``, loaded from its file.

    ``sys.modules`` is left as it was: loading enters the module there, but
    without its package a later ``import scipy.linalg`` would then take it
    from there and never bind it as the package's attribute.  Left out, it
    is loaded by that import as usual, the same compiled module again.
    """
    path = next(directory / (name + s) for s in EXTENSION_SUFFIXES
                if (directory / (name + s)).is_file())
    spec = spec_from_file_location(f"scipy.linalg.{name}", path)
    before = sys.modules.get(spec.name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if before is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = before
    return module


def _load() -> tuple[str, ModuleType, ModuleType]:
    """The route taken, and scipy's ``_flapack`` and ``_fblas`` modules."""
    try:
        linalg = Path(find_spec("scipy").submodule_search_locations[0], "linalg")
        return "direct", _from_file(linalg, "_flapack"), _from_file(linalg, "_fblas")
    # The direct load rests on scipy's private file layout, so any failure of
    # it falls back; the package's import then succeeds or raises its own error.
    except Exception:
        from scipy.linalg import _fblas, _flapack

        return "scipy.linalg", _flapack, _fblas


ROUTE, _flapack, _fblas = _load()

dgemm = _fblas.dgemm


def solveh_banded(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs for the SPD matrix A whose lower bands are ``bands``
    (``bands[d, j]`` = A[j + d, j]): ``dptsv`` for one subdiagonal, else
    ``dpbsv``.  Neither input is overwritten."""
    a = np.asarray_chkfinite(bands)
    b = np.asarray_chkfinite(rhs)
    if a.shape[-1] != b.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    if a.shape[0] == 2:
        *_, x, info = _flapack.dptsv(a[0], a[1, :-1], b)
    else:
        _, x, info = _flapack.dpbsv(a, b, lower=1)
    if info:  # > 0: dpbsv's ldab and kd follow from the shapes, so none is illegal
        raise LinAlgError(f"{info}th leading minor not positive definite")
    return x


def eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and B-orthonormal eigenvectors of the
    symmetric-definite pencil A v = lam B v, from the lower triangles of A
    and B.  Neither input is overwritten."""
    a1 = np.asarray_chkfinite(a)
    b1 = np.asarray_chkfinite(b)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError('expected square "a" matrix')
    if b1.shape != a1.shape:
        raise ValueError(f"wrong b dimensions {b1.shape}, should be {a1.shape}")
    w, v, info = _flapack.dsygvd(a=a1, b=b1, itype=1, uplo="L", jobz="V")
    if info:  # > 0: the arguments follow from the shapes, so none is illegal
        n = a1.shape[0]
        raise LinAlgError(
            f"The leading minor of order {info - n} of B is not positive definite"
            if info > n else f"dsygvd failed to converge: info={info}"
        )
    return w, v
