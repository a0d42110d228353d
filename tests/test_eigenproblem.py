import ast
import inspect
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh

import ritzspline.eigenproblem as eigenproblem
from ritzspline.analysis import _fmt
from ritzspline.eigenproblem import (
    BACKWARD_ERROR_TOL,
    asymptotic_eigenvalues,
    backward_errors,
    clamped_beam_eigenvalues,
    constrained_space,
    resolved_modes,
    solve_biharmonic,
)
from ritzspline.mesh import Breakpoints, Spline, eval_spline_many
from ritzspline.quadrature import gram_matrix


# ---------------------------------------------------------------------------
# reference eigenvalues
# ---------------------------------------------------------------------------


def test_first_beam_roots():
    lam = clamped_beam_eigenvalues(3)
    mus = lam**0.25
    np.testing.assert_allclose(
        mus, [4.730040744862704, 7.853204624095838, 10.995607838001671], rtol=1e-12
    )
    # each root satisfies the frequency equation
    for mu in mus:
        assert abs(math.cos(mu) * math.cosh(mu) - 1.0) < 1e-7


def test_references_approach_asymptotics():
    lam = clamped_beam_eigenvalues(30)
    asym = asymptotic_eigenvalues(30)
    rel = np.abs(lam - asym) / lam
    assert rel[0] < 2e-2
    assert rel[-1] < 1e-12
    # decay is monotone until it reaches the floating-point noise floor
    assert np.all(np.diff(rel[:10]) < 0)


@pytest.mark.parametrize("i", [1, 2, 3, 5, 8, 13, 40, 101, 225, 226, 227, 300, 431, 499, 500])
def test_beam_roots_within_one_ulp(i):
    """Against mpmath's root of cos = sech at 50 digits; modes from 226 on
    have mu > 710, where cosh(mu) overflows a double."""
    mu = eigenproblem._beam_root(i)
    with mpmath.workdps(50):
        exact = mpmath.findroot(lambda m: mpmath.cos(m) - mpmath.sech(m),
                                (2 * i + 1) * mpmath.pi / 2)
        assert abs(mpmath.mpf(mu) - exact) <= math.ulp(mu)


def test_high_mode_roots_do_not_overflow():
    lam = clamped_beam_eigenvalues(220)
    assert np.all(np.isfinite(lam)) and np.all(np.diff(lam) > 0)


def test_beam_roots_past_cosh_overflow():
    """Modes with mu > ~710, where cosh(mu) overflows a double."""
    lam = clamped_beam_eigenvalues(300)
    assert np.all(np.isfinite(lam)) and np.all(np.diff(lam) > 0)
    mu = lam[-1] ** 0.25
    assert mu == pytest.approx(944.0485924037, abs=1e-9)


# ---------------------------------------------------------------------------
# constrained space
# ---------------------------------------------------------------------------


def test_constrained_dimensions():
    space, keep = constrained_space(3, Breakpoints.uniform(8))
    assert space.dim == 11 and keep.size == 7
    space2, keep2 = constrained_space(2, Breakpoints.uniform(4))
    assert keep2.size == 2


def test_constrained_members_vanish_at_ends(rng):
    space, keep = constrained_space(4, Breakpoints.uniform(6))
    coeffs = np.zeros(space.dim)
    coeffs[keep] = rng.normal(size=keep.size)
    s = Spline(space, coeffs)
    for x in (0.0, 1.0):
        assert abs(float(eval_spline_many(s, x))) <= 1e-12
        assert abs(float(eval_spline_many(s, x, 1))) <= 1e-12


def test_constrained_space_requires_quadratics():
    with pytest.raises(ValueError, match="p >= 2"):
        constrained_space(1, Breakpoints.uniform(8))


def test_pencil_dimension_is_limited():
    """n = p + elements - 4 modes, at most MAX_PENCIL_DIM; the library
    checks it before assembling anything."""
    eigenproblem._check_pencil_dim(2, 4098)
    eigenproblem._check_pencil_dim(20, 4080)
    message = ("requires n = p + elements - 4 <= MAX_PENCIL_DIM = 4096, the dense pencil "
               "holding 8 n^2 doubles: got n=4097")
    for p, elements in ((2, 4099), (5, 4096)):
        with pytest.raises(ValueError) as err:
            solve_biharmonic(p, Breakpoints.uniform(elements))
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# discrete spectrum
# ---------------------------------------------------------------------------


def test_fundamental_eigenvalue_cubics():
    rep = solve_biharmonic(3, Breakpoints.uniform(20))
    assert rep.lambdas[0] == pytest.approx(500.564, rel=5e-3)
    assert rep.rel_errors[0] < 1e-4


def test_discrete_eigenvalues_are_upper_bounds():
    for p, nel in ((2, 12), (3, 10), (4, 8)):
        rep = solve_biharmonic(p, Breakpoints.uniform(nel))
        assert np.all(rep.lambdas >= rep.references * (1 - 1e-6))


def test_eigenvalues_decrease_under_refinement():
    coarse = solve_biharmonic(3, Breakpoints.uniform(8))
    fine = solve_biharmonic(3, Breakpoints.uniform(16))
    assert np.all(fine.lambdas[: coarse.n] <= coarse.lambdas * (1 + 1e-9))


def test_fundamental_error_drops_at_expected_rate():
    errs = [
        solve_biharmonic(3, Breakpoints.uniform(nel)).rel_errors[0]
        for nel in (10, 20, 40)
    ]
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(2 ** (2 * (3 - 1)), rel=0.2)


def test_matrices_symmetric_and_mass_spd():
    from ritzspline.mesh import make_space
    from ritzspline.quadrature import gram_matrix

    for p in range(2, 7):
        space = make_space(p, p - 1, Breakpoints.uniform(16))
        for deriv in (0, 2):
            dense = gram_matrix(space, deriv).to_dense()
            assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
        np.linalg.cholesky(gram_matrix(space, 0).to_dense())


# ---------------------------------------------------------------------------
# outlier prediction
# ---------------------------------------------------------------------------


def _resolved(h, lam):
    """The number of modes that the spectral cutoff admits."""
    return int(np.sum(resolved_modes(h, lam)))


def test_prediction_closed_form():
    lam = asymptotic_eigenvalues(40)
    assert _resolved(0.1, lam) == 9  # (2i+1)/2 < 10 means i <= 9


def test_prediction_strict_at_cutoff():
    lam = clamped_beam_eigenvalues(1)
    h = math.pi / lam[0] ** 0.25
    assert _resolved(h, lam) == 0
    assert _resolved(h * 0.999, lam) == 1


def test_prediction_all_modes_for_fine_mesh():
    lam = clamped_beam_eigenvalues(25)
    assert _resolved(1e-4, lam) == 25


def test_prediction_never_exceeds_count():
    rep = solve_biharmonic(3, Breakpoints.uniform(16))
    assert rep.predicted_non_outliers <= rep.n


def test_report_threshold_one_has_no_observed_outliers():
    rep = solve_biharmonic(3, Breakpoints.uniform(16), threshold=1.0)
    assert rep.observed_outliers == []


def test_observed_outliers_form_trailing_range():
    rep = solve_biharmonic(3, Breakpoints.uniform(16))
    out = rep.observed_outliers
    if out:
        lo = min(out)
        assert all(i in out for i in range(lo, max(out) + 1))
        assert max(out) >= rep.n - 1  # top of the spectrum


def test_report_derives_its_mode_count_and_references():
    """n and the reference spectra follow from the discrete eigenvalues: the
    constrained space of p = 3 on 8 elements keeps dim - 4 = 7 modes."""
    rep = solve_biharmonic(3, Breakpoints.uniform(8))
    assert rep.n == rep.lambdas.size == 7
    assert isinstance(rep.n, int)
    assert np.array_equal(rep.references, clamped_beam_eigenvalues(7))
    assert np.array_equal(rep.asymptotic, asymptotic_eigenvalues(7))


def test_report_serialization():
    rep = solve_biharmonic(3, Breakpoints.uniform(8))
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "index,lambda_h,lambda_ref,rel_err,predicted_flag,observed_flag"
    assert len(lines) == rep.n + 1
    payload = json.loads(rep.to_json())
    assert payload["n"] == rep.n
    assert len(payload["lambda_h"]) == rep.n
    assert payload["predicted_non_outliers"] == rep.predicted_non_outliers


def test_report_bytes_match_row_by_row_formula():
    """The serialisers computed each row from whole-array properties before;
    computing the arrays once must not change a byte."""
    for p, nel in ((2, 20), (3, 50), (5, 40)):
        rep = solve_biharmonic(p, Breakpoints.uniform(nel))
        rel = np.abs(rep.lambdas - rep.references) / rep.references
        pred = rep.h * rep.references**0.25 < math.pi
        lines = ["index,lambda_h,lambda_ref,rel_err,predicted_flag,observed_flag"]
        for i in range(rep.n):
            lines.append(
                ",".join(
                    [
                        str(i + 1),
                        _fmt(rep.lambdas[i]),
                        _fmt(rep.references[i]),
                        _fmt(rel[i]),
                        str(int(pred[i])),
                        str(int((rel > rep.threshold)[i])),
                    ]
                )
            )
        assert rep.to_csv() == "\n".join(lines) + "\n"
        payload = {
            "p": p,
            "h": rep.h,
            "n": rep.n,
            "threshold": rep.threshold,
            "predicted_non_outliers": int(np.sum(pred)),
            "predicted_non_outliers_asymptotic": _resolved(rep.h, rep.asymptotic),
            "observed_outliers": [int(i) + 1 for i in np.nonzero(rel > rep.threshold)[0]],
            "lambda_h": list(rep.lambdas),
            "lambda_ref": list(rep.references),
            "lambda_asymptotic": list(rep.asymptotic),
            "rel_err": list(rel),
            "predicted_flag": [bool(v) for v in pred],
            "observed_flag": [bool(v) for v in rel > rep.threshold],
        }
        assert rep.to_json() == json.dumps(payload, indent=2) + "\n"


def _constrained_pairs(p, nel):
    """The dense stiffness and mass on the constrained space, and their pairs."""
    space, keep = constrained_space(p, Breakpoints.uniform(nel))
    stiff = gram_matrix(space, 2).principal(keep[0], keep[-1] + 1).to_dense()
    mass = gram_matrix(space, 0).principal(keep[0], keep[-1] + 1).to_dense()
    lam, vecs = eigh(stiff, mass)
    return stiff, mass, lam, vecs


def test_coarse_meshes_match_dense_restriction():
    """Meshes that keep at most p functions, where the restricted band is
    narrower than the assembled one, give the spectrum of the dense
    restriction."""
    for p, nel in ((4, 3), (5, 2), (5, 3), (8, 1), (8, 2), (8, 3)):
        xi = Breakpoints.uniform(nel)
        space, keep = constrained_space(p, xi)
        ix = np.ix_(keep, keep)
        expected = eigh(
            gram_matrix(space, 2).to_dense()[ix], gram_matrix(space, 0).to_dense()[ix]
        )[0]
        rep = solve_biharmonic(p, xi)
        assert rep.n == keep.size
        np.testing.assert_array_equal(rep.lambdas, expected)


def test_backward_errors_at_roundoff_level():
    for p, nel in ((2, 800), (3, 400), (8, 50)):
        rep = solve_biharmonic(p, Breakpoints.uniform(nel))
        assert 0.0 < rep.backward_error <= 1e3 * np.finfo(float).eps


# Largest |lambda_i(1 thread) - lambda_i(2 threads)| / (eps lambda_max) that
# the thread test admits.  Measured: 2.07 at p = 5 on 200 elements, where 183
# of the 201 eigenvalues differ and lambda_1 moves by 5.1e-9 of itself.
THREAD_EPS_FACTOR = 8


def test_eig_depends_on_the_blas_thread_count_only_in_the_last_bits(tmp_path):
    """``eig`` past the size from which the BLAS thread count changes the
    eigenvalue bits, in two fresh processes at 1 and 2 threads: the mode
    count, the flags and the outlier counts agree, and each eigenvalue moves
    by a few eps times the largest, the backward error of the solve."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "ritzspline.cli", "eig", "--p", "5", "--elements", "200",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads((out / "spectrum.json").read_text()))
    one, two = runs
    for key in ("n", "predicted_flag", "observed_flag", "observed_outliers",
                "predicted_non_outliers"):
        assert one[key] == two[key], key
    lam1, lam2 = np.array(one["lambda_h"]), np.array(two["lambda_h"])
    scale = np.finfo(float).eps * max(lam1.max(), lam2.max())
    assert np.max(np.abs(lam1 - lam2)) <= THREAD_EPS_FACTOR * scale


def test_backward_errors_match_dense_formula():
    k, m, lam, vecs = _constrained_pairs(3, 12)
    lam = lam * (1 + 1e-3)  # residuals well above roundoff
    knorm, mnorm = np.abs(k).sum(axis=0).max(), np.abs(m).sum(axis=0).max()
    eta = backward_errors(k, m, lam, vecs)
    for i in range(lam.size):
        v = vecs[:, i]
        dense = np.linalg.norm(k @ v - lam[i] * (m @ v)) / (
            (knorm + abs(lam[i]) * mnorm) * np.linalg.norm(v)
        )
        assert eta[i] == pytest.approx(dense, rel=1e-9)


def test_backward_error_guard_rejects_wrong_pair(monkeypatch):
    stiff, mass, lam, vecs = _constrained_pairs(3, 40)
    wrong = lam.copy()
    wrong[-1] *= 1 + 1e-6
    eta = backward_errors(stiff, mass, wrong, vecs)
    assert eta[-1] > BACKWARD_ERROR_TOL and np.all(eta[:-1] <= BACKWARD_ERROR_TOL)

    def perturbed(*args, **kwargs):
        lam, vecs = eigh(*args, **kwargs)
        lam[-1] *= 1 + 1e-6
        return lam, vecs

    monkeypatch.setattr(eigenproblem, "eigh", perturbed)
    with pytest.raises(RuntimeError, match=f"eigenpair {lam.size - 1} backward error"):
        solve_biharmonic(3, Breakpoints.uniform(40))


def test_backward_error_guard_rejects_wrong_eigenvector(monkeypatch):
    """A pair whose eigenvalue is right but whose vector is not is rejected
    by name.  The one dense pencil goes to both the eigensolver and the
    residual products, and neither modifies it."""
    k, m, lam, vecs = _constrained_pairs(3, 40)
    j = 7
    wrong = vecs.copy()
    wrong[:, j] += 1e-6 * vecs[:, j + 1]
    eta = backward_errors(k, m, lam, wrong)
    assert eta[j] > BACKWARD_ERROR_TOL and np.all(np.delete(eta, j) <= BACKWARD_ERROR_TOL)

    seen = {}

    def perturbed(a, b):
        seen["pencil"] = a, b, a.copy(), b.copy()
        lam, vecs = eigh(a, b)
        vecs[:, j] += 1e-6 * vecs[:, j + 1]
        return lam, vecs

    def recorded(a, b, *args):
        seen["checked"] = a, b
        return backward_errors(a, b, *args)

    monkeypatch.setattr(eigenproblem, "eigh", perturbed)
    monkeypatch.setattr(eigenproblem, "backward_errors", recorded)
    with pytest.raises(RuntimeError, match=f"eigenpair {j} backward error"):
        solve_biharmonic(3, Breakpoints.uniform(40))
    a, b, a0, b0 = seen["pencil"]
    assert seen["checked"][0] is a and seen["checked"][1] is b
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


# ---------------------------------------------------------------------------
# one BLAS on the eig path
# ---------------------------------------------------------------------------

# numpy and scipy each load their own OpenBLAS, with its own thread pool.  A
# numpy product next to scipy's eigh makes the two pools compete for the
# cores: with ``k @ vecs`` in the residual check, eig passes on 2 cores took
# two to four times as long.  So the eig path's own code calls numpy's BLAS
# and LAPACK nowhere: no ``@``, no numpy product routine and no numpy.linalg
# but ``norm`` along an axis (a ufunc reduction; without ``axis`` a vector
# norm is a BLAS dot).  ``numpy.linalg.LinAlgError`` is an exception class,
# not a call, so it is the one other numpy.linalg name allowed.  What numpy
# and scipy call inside is not scanned.
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "tensordot", "vdot"}


def _imported_names(tree):
    """The dotted name each import of the module binds, by bound name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                names[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node, names):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([names.get(node.id, node.id), *reversed(parts)])


def _numpy_blas_uses(tree, names):
    """Line and text of every numpy BLAS or LAPACK use in ``tree``."""
    allowed = set()  # the func nodes of np.linalg.norm(..., axis=...)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords = {kw.arg for kw in node.keywords}
            name = _dotted(node.func, names)
            if name == "numpy.linalg.norm" and "axis" in keywords:
                allowed.add(id(node.func))
            if name.split(".")[-1] == "einsum" and "optimize" in keywords:
                found.append(node)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node)
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS:
            found.append(node)  # np.dot(a, b) and a.dot(b) alike
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in allowed:
            name = _dotted(node, names)
            if name == "numpy.linalg.LinAlgError":
                continue
            if name.startswith("numpy.linalg.") or name in {f"numpy.{f}" for f in NUMPY_PRODUCTS}:
                found.append(node)
    return sorted({(node.lineno, ast.unparse(node)) for node in found})


@pytest.mark.parametrize("code,flagged", [
    ("k @ v", True), ("r @= v", True), ("np.dot(a, b)", True), ("a.dot(b)", True),
    ("np.tensordot(a, b)", True), ("np.linalg.solve(a, b)", True),
    ("np.linalg.norm(v)", True), ("f(np.linalg.eigh)", True),
    ("np.einsum('ij,jk', a, b, optimize=True)", True),
    ("from numpy.linalg import solve\nsolve(a, b)", True),
    ("from numpy import vdot as d\nd(a, b)", True),
    ("np.linalg.norm(v, axis=0)", False), ("np.einsum('ij->i', a)", False),
    ("dgemm(1.0, a, b)", False), ("np.abs(k).sum(axis=0)", False),
    ("raise np.linalg.LinAlgError('x')", False),
])
def test_blas_scan_flags_numpy_products(code, flagged):
    tree = ast.parse("import numpy as np\n" + code)
    assert bool(_numpy_blas_uses(tree, _imported_names(tree))) == flagged


def test_eig_path_calls_no_numpy_blas():
    """All of ``eigenproblem`` and every package function that
    ``solve_biharmonic`` runs, found by profiling one call with the
    package's caches cleared, are free of numpy BLAS and LAPACK calls.  The
    modules are listed after the call, so that one it imports on the way
    is scanned whatever ran before."""

    def package():
        return {module.__file__: module for name, module in sys.modules.items()
                if name.startswith("ritzspline.")}

    for module in package().values():
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear") and getattr(fn, "__module__", "") == module.__name__:
                fn.cache_clear()
    reached = set()
    folder = eigenproblem.__file__.rpartition("eigenproblem.py")[0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(folder):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        solve_biharmonic(3, Breakpoints.uniform(20))
    finally:
        sys.setprofile(None)
    found, scanned = {}, set()
    for path, module in package().items():
        tree = ast.parse(inspect.getsource(module))
        names = _imported_names(tree)
        if module is eigenproblem:
            found[path] = _numpy_blas_uses(tree, names)
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
                if (path, first) in reached:
                    scanned.add(getattr(node, "name", "<lambda>"))
                    found[path] = found.get(path, []) + _numpy_blas_uses(node, names)
    assert {"grid_table", "gram_bands", "_cox_de_boor", "gauss_rule", "to_dense", "eigh"} <= scanned
    assert not {path: uses for path, uses in found.items() if uses}


def test_threshold_validation():
    with pytest.raises(ValueError):
        solve_biharmonic(3, Breakpoints.uniform(8), threshold=0.0)


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.5, float("nan")])
def test_solve_biharmonic_rejects_threshold_outside_unit_interval(threshold):
    # outside (0, 1] every mode (-1) or none (nan) would be flagged an outlier
    with pytest.raises(ValueError, match=r"threshold in \(0, 1\]"):
        solve_biharmonic(3, Breakpoints.uniform(20), threshold=threshold)


@pytest.mark.xfail(
    strict=True,
    reason="the spectral cutoff marks modes whose error bound decays, not a "
    "10% accuracy guarantee; near the cutoff the predicted modes measurably "
    "exceed 10% relative eigenvalue error",
)
def test_predicted_modes_within_default_threshold():
    for p in (3, 4):
        for nel in (8, 16, 32):
            rep = solve_biharmonic(p, Breakpoints.uniform(nel))
            flags = rep.predicted_flags
            assert np.all(rep.rel_errors[flags] < 0.10), (p, nel)
