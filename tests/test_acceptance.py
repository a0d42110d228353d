"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import time

import numpy as np
from numpy.polynomial import polynomial as npp

from ritzspline.analysis import (
    convergence_study,
    error_norm,
    function_seminorm,
    rq_difference_study,
)
from ritzspline.bounds import (
    BoundQuery,
    error_coefficient,
    inverse_constant,
    schultz_log_gap,
)
from ritzspline.cli import main as cli_main
from ritzspline.eigenproblem import solve_biharmonic
from ritzspline.functions import builtin
from ritzspline.mesh import Breakpoints, eval_spline_many, make_space
from ritzspline.projectors import (
    q_project,
    qtilde_project,
    ritz_correction,
    ritz_project,
)
from ritzspline.quadrature import default_order, gauss_rule, gram_matrix, load_vector, mesh_points

from conftest import first_element_poly, random_breakpoints, random_smooth

UNIT = Breakpoints(np.array([0.0, 1.0]))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# 1. closed-form reproduction: x^6, order 2, polynomial spaces of degree 2..5
# ---------------------------------------------------------------------------

X6_EXPECTED = {
    # degree: (Q monomial coeffs, R monomial coeffs), low order first
    2: ([0, 0, 3], [9 / 28, -33 / 14, 3]),
    3: ([0, 0, -3, 4], [17 / 140, 3 / 70, -3, 4]),
    4: ([0, 0, 9 / 7, -32 / 7, 30 / 7], [-3 / 140, 3 / 70, 9 / 7, -32 / 7, 30 / 7]),
    5: (
        [0, 0, -3 / 14, 10 / 7, -45 / 14, 3],
        [0, 0, -3 / 14, 10 / 7, -45 / 14, 3],
    ),
}


def test_criterion_1_closed_form_reproduction():
    u = builtin("x6")
    with Timer() as t:
        worst = 0.0
        for deg, (expect_q, expect_r) in X6_EXPECTED.items():
            space = make_space(deg, deg - 1, UNIT)
            qs = q_project(space, 2, u)
            rs = ritz_project(space, 2, u)
            eq = np.zeros(deg + 1)
            eq[: len(expect_q)] = expect_q
            er = np.zeros(deg + 1)
            er[: len(expect_r)] = expect_r
            worst = max(worst, float(np.max(np.abs(first_element_poly(qs) - eq))))
            worst = max(worst, float(np.max(np.abs(first_element_poly(rs) - er))))
            if deg == 5:
                worst = max(worst, float(np.max(np.abs(qs.coeffs - rs.coeffs))))
    ok = worst <= 1e-10 and t.elapsed < 1.0
    report(1, ok, f"max coefficient error {worst:.2e}, {t.elapsed:.2f}s")
    assert worst <= 1e-10
    assert t.elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. closed-form reproduction: order-1 projector onto linears and quadratics
# ---------------------------------------------------------------------------


def test_criterion_2_order1_closed_forms():
    rng = np.random.default_rng(417)
    p1 = make_space(1, 0, UNIT)
    p2 = make_space(2, 1, UNIT)
    with Timer() as t:
        worst = 0.0
        for _ in range(10):
            u = random_smooth(rng)
            got = q_project(p1, 1, u).coeffs
            expect = np.array([u.eval(0.0), u.eval(1.0)])
            worst = max(worst, float(np.max(np.abs(got - expect))))
            d = q_project(p2, 1, u).coeffs - qtilde_project(p2, 1, u).coeffs
            worst = max(worst, float(np.max(np.abs(d))))
    ok = worst <= 1e-10 and t.elapsed < 1.0
    report(2, ok, f"max coefficient error {worst:.2e}, {t.elapsed:.2f}s")
    assert worst <= 1e-10
    assert t.elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. convergence orders of the boundary projector on sin(4x)
# ---------------------------------------------------------------------------


def test_criterion_3_convergence_orders():
    u = builtin("sin4x")
    with Timer() as t:
        failures = []
        for p in (2, 3, 4):
            tab = convergence_study(u, "q", p, p - 1, 2, (0, 1), levels=5)
            for l in (0, 1):
                target = 2.0 if (p == 2 and l == 0) else float(p + 1 - l)
                got = tab.orders[l][-1]
                if abs(got - target) > 0.15:
                    failures.append((p, l, got, target))
    ok = not failures and t.elapsed < 30.0
    report(3, ok, f"failures={failures}, {t.elapsed:.1f}s")
    assert not failures
    assert t.elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. superconvergence of the projector difference
# ---------------------------------------------------------------------------


def test_criterion_4_difference_superconvergence():
    u = builtin("sin4x")
    with Timer() as t:
        failures = []
        for p in (3, 4):
            tab = rq_difference_study(u, p, p - 1, 2, (0, 1), levels=5)
            target = float(2 * (p - 2 + 1))
            for l in (0, 1):
                got = tab.orders[l][-1]
                if abs(got - target) > 0.3:
                    failures.append((p, l, got, target))
        tab5 = rq_difference_study(u, 5, 4, 2, (0,), levels=3)
        max_diff = max(tab5.errors[0])
        if max_diff > 1e-9:
            failures.append(("p=5 difference", max_diff))
    ok = not failures and t.elapsed < 30.0
    report(4, ok, f"failures={failures}, {t.elapsed:.1f}s")
    assert not failures
    assert t.elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. bound validity sweep
# ---------------------------------------------------------------------------


def test_criterion_5_bound_validity_sweep():
    with Timer() as t:
        checked = 0
        violations = []
        for name in ("sin4x", "x6"):
            u = builtin(name)
            for p in range(0, 6):
                r = p + 1
                for k in range(-1, p):
                    for q in range(0, min(k + 1, 3) + 1):
                        for n_int in (1, 2, 4, 8):
                            xi = Breakpoints.uniform(n_int + 1)
                            space = make_space(p, k, xi)
                            s = q_project(space, q, u)
                            semi = function_seminorm(u, r, xi)
                            for l in range(q + 1):
                                if p < max(r - 1, 2 * q - l - 1):
                                    continue
                                coeff = error_coefficient(
                                    BoundQuery(p=p, k=k, q=q, l=l, r=r, h=xi.h)
                                )
                                err = error_norm(u, s, l)
                                checked += 1
                                if err > coeff * semi * (1 + 1e-9):
                                    violations.append((name, p, k, q, l, n_int, err, coeff * semi))
    ok = not violations and t.elapsed < 120.0
    report(5, ok, f"{checked} cases, violations={len(violations)}, {t.elapsed:.1f}s")
    assert not violations, violations[:5]
    assert t.elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. comparison with the knot-interpolation constants
# ---------------------------------------------------------------------------


def test_criterion_6_constant_comparison():
    with Timer() as t:
        gaps = [
            (q, k, schultz_log_gap(q, k))
            for q in range(1, 9)
            for k in range(q - 1, 2 * q - 1)
        ]
        worst = min(g for _, _, g in gaps)
    ok = worst >= 0.0 and t.elapsed < 1.0
    report(6, ok, f"{len(gaps)} pairs, min gap {worst:.3e}, {t.elapsed:.2f}s")
    assert worst >= 0.0
    assert t.elapsed < 1.0


# ---------------------------------------------------------------------------
# 7. structural identities over a randomized suite
# ---------------------------------------------------------------------------


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(1105)
    with Timer() as t:
        failures = []
        for case in range(50):
            p = int(rng.integers(2, 6))
            k = int(rng.integers(max(0, p - 3), p))
            q = int(rng.integers(1, min(k + 1, 3) + 1))
            space = make_space(p, k, random_breakpoints(rng, int(rng.integers(1, 4))))
            u = random_smooth(rng)
            qs = q_project(space, q, u)
            rs = ritz_project(space, q, u)

            # Pythagoras split of the squared errors; the squared norms carry
            # ~eps |u| err of cancellation noise, hence the floor
            corr = ritz_correction(space, q, u)
            xs, ws = mesh_points(space.breakpoints, 40)
            corr_vals = npp.polyval(xs.ravel() - space.breakpoints.a, corr)
            en2 = float(np.sum(corr_vals**2 * ws.ravel()))
            eq_err = error_norm(u, qs)
            unorm = function_seminorm(u, 0, space.breakpoints)
            lhs = error_norm(u, rs) ** 2
            rhs = eq_err**2 - en2
            if abs(lhs - rhs) > max(1e-9 * eq_err**2, 1e-13 * unorm * eq_err):
                failures.append((case, "pythagoras"))

            # equality of the top-order seminorm errors
            a = error_norm(u, rs, q)
            b = error_norm(u, qs, q)
            if abs(a - b) > 1e-10 * max(b, 1e-30):
                failures.append((case, "top seminorm"))

            # correction route equals the constrained solve
            r2 = ritz_project(space, q, u, method="saddle")
            scale = max(1.0, float(np.max(np.abs(rs.coeffs))))
            if np.max(np.abs(rs.coeffs - r2.coeffs)) > 1e-8 * scale:
                failures.append((case, "saddle"))

            # Galerkin orthogonality in the order-q semi-inner product,
            # scaled row-wise by the Cauchy-Schwarz magnitude |d^q u| |d^q b_i|
            n = default_order(space.degree, space.breakpoints)
            gram = gram_matrix(space, q, n)
            resid = load_vector(
                space, lambda x: u.eval(x, q), n, deriv=q
            ) - gram.matvec(qs.coeffs)
            scale = np.maximum(
                1.0,
                function_seminorm(u, q, space.breakpoints) * np.sqrt(gram.bands[0]),
            )
            if np.max(np.abs(resid) / scale) > 1e-9:
                failures.append((case, "galerkin"))

            # endpoint interpolation wherever the degree admits it
            for l in range(q):
                want = u.eval(0.0, l)
                if abs(float(eval_spline_many(qs, 0.0, l)) - want) > 1e-9 * max(1.0, abs(want)):
                    failures.append((case, f"left l={l}"))
                if space.degree >= 2 * q - l - 1:
                    want = u.eval(1.0, l)
                    got = float(eval_spline_many(qs, 1.0, l))
                    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        failures.append((case, f"right l={l}"))
    ok = not failures and t.elapsed < 60.0
    report(7, ok, f"50 cases, failures={failures}, {t.elapsed:.1f}s")
    assert not failures
    assert t.elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. polynomial inverse inequality
# ---------------------------------------------------------------------------


def test_criterion_8_inverse_inequality():
    rng = np.random.default_rng(88)
    with Timer() as t:
        violations = 0
        for _ in range(500):
            p = int(rng.integers(0, 9))
            coeffs = rng.normal(size=p + 1)
            a = float(rng.uniform(-3, 3))
            b = a + float(rng.uniform(0.1, 5))
            rule = gauss_rule(p + 2)
            xs = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
            ws = 0.5 * (b - a) * rule.weights
            vals = np.polyval(coeffs, xs)
            dvals = np.polyval(np.polyder(coeffs) if p else np.zeros(1), xs)
            norm = float(np.sqrt(np.sum(vals**2 * ws)))
            dnorm = float(np.sqrt(np.sum(dvals**2 * ws)))
            if dnorm > inverse_constant(p) / (b - a) * norm * (1 + 1e-12):
                violations += 1
    ok = violations == 0 and t.elapsed < 5.0
    report(8, ok, f"500 polynomials, {violations} violations, {t.elapsed:.2f}s")
    assert violations == 0
    assert t.elapsed < 5.0


# ---------------------------------------------------------------------------
# 9. eigenvalue lab
# ---------------------------------------------------------------------------


def test_criterion_9_eigenvalue_lab():
    with Timer() as t:
        rep = solve_biharmonic(3, Breakpoints.uniform(20))
        fundamental_ok = abs(rep.lambdas[0] - 500.564) / 500.564 < 0.005
        upper_ok = bool(np.all(rep.lambdas >= rep.references * (1 - 1e-6)))
        flags = rep.predicted_flags
        worst_predicted = float(np.max(rep.rel_errors[flags]))
        predicted_ok = worst_predicted < 0.10
    ok = fundamental_ok and upper_ok and predicted_ok and t.elapsed < 10.0
    report(
        9,
        ok,
        f"lambda_h1={rep.lambdas[0]:.3f} (ok={fundamental_ok}), "
        f"upper bounds ok={upper_ok}, worst predicted rel err "
        f"{worst_predicted:.3f} (ok={predicted_ok}), {t.elapsed:.1f}s",
    )
    assert fundamental_ok
    assert upper_ok
    assert t.elapsed < 10.0
    # the spectral cutoff admits modes near the resolution limit whose
    # eigenvalue error measurably exceeds 10%; asserted as specified
    assert predicted_ok, (
        f"predicted non-outlier modes reach {worst_predicted:.1%} relative error"
    )


# ---------------------------------------------------------------------------
# 10. deterministic CSV behind the figure commands
# ---------------------------------------------------------------------------


def test_criterion_10_deterministic_outputs(tmp_path):
    with Timer() as t:
        pairs = []
        for tag in ("x", "y"):
            out = tmp_path / f"cv{tag}"
            rc = cli_main(
                [
                    "converge", "--function", "sin(4*x)", "--p-list", "2,3",
                    "--q", "2", "--l-list", "0,1", "--levels", "3",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            pairs.append(
                b"".join(
                    (out / f"error_p{p}_l{l}.csv").read_bytes()
                    for p in (2, 3)
                    for l in (0, 1)
                )
            )
        conv_ok = pairs[0] == pairs[1]
        pairs = []
        for tag in ("x", "y"):
            out = tmp_path / f"eig{tag}"
            rc = cli_main(["eig", "--p", "3", "--elements", "12", "--out", str(out)])
            assert rc == 0
            pairs.append((out / "spectrum.csv").read_bytes())
        eig_ok = pairs[0] == pairs[1]
    ok = conv_ok and eig_ok
    report(10, ok, f"converge identical={conv_ok}, eig identical={eig_ok}, {t.elapsed:.1f}s")
    assert conv_ok and eig_ok
