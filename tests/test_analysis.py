import json

import numpy as np
import pytest

from ritzspline.analysis import (
    ConvergenceTable,
    boundary_report,
    convergence_study,
    error_norm,
    function_seminorm,
    moment_report,
    rq_difference_study,
    spline_norm,
)
from ritzspline.functions import SmoothFunction, builtin
from ritzspline.mesh import (
    Breakpoints,
    Polynomial,
    Spline,
    eval_spline_many,
    make_space,
    poly_to_spline,
)
from ritzspline.projectors import q_project, ritz_project
from ritzspline.quadrature import default_order, mesh_points

from conftest import random_breakpoints, random_smooth

UNIT = Breakpoints(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_error_norm_of_linear_against_zero():
    u = SmoothFunction(
        lambda x, d: np.asarray(x, float) if d == 0 else (np.ones_like(x) if d == 1 else np.zeros_like(x)),
        10,
        "x",
    )
    zero = Spline(make_space(0, -1, UNIT), [0.0])
    assert error_norm(u, zero) == pytest.approx(1 / np.sqrt(3), rel=1e-13)


def test_error_norm_second_derivative_closed_form():
    # the residual x^6 - 3x^2 has |d^2| norm exactly 8 on [0, 1]
    u = builtin("x6")
    s = poly_to_spline(Polynomial([0.0, 0.0, 3.0], (0.0, 1.0)), make_space(2, 1, UNIT))
    assert error_norm(u, s, 2) == pytest.approx(8.0, rel=1e-13)


def test_error_norm_vanishes_for_members(rng):
    space = make_space(3, 2, random_breakpoints(rng, 3))
    s = Spline(space, rng.normal(size=space.dim))
    u = SmoothFunction(lambda x, d: eval_spline_many(s, x, d), 2, "member")
    for l in range(space.smoothness + 1):
        assert error_norm(u, s, l) <= 1e-11


def test_error_norm_order_guard():
    u = SmoothFunction(lambda x, d: np.zeros_like(x), 1, "flat")
    s = Spline(make_space(0, -1, UNIT), [0.0])
    with pytest.raises(ValueError):
        error_norm(u, s, 2)


def test_spline_norm_matches_error_norm(rng):
    space = make_space(2, 1, random_breakpoints(rng, 2))
    s = Spline(space, rng.normal(size=space.dim))
    zero = SmoothFunction(lambda x, d: np.zeros_like(np.asarray(x, float)), 99, "0")
    for l in (0, 1, 2):
        assert spline_norm(s, l) == pytest.approx(error_norm(zero, s, l), rel=1e-12)


def test_function_seminorm_of_sine():
    u = builtin("sin4x")
    # |d^1 sin(4x)|^2 = 16 int cos^2(4x) = 8 (1 + sin8/8)
    expect = np.sqrt(8 * (1 + np.sin(8.0) / 8.0))
    assert function_seminorm(u, 1, UNIT) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_optimal_orders_for_smooth_target():
    u = builtin("sin4x")
    tab = convergence_study(u, "q", 3, 2, 2, (0, 1), levels=5)
    assert tab.final_order(0) == pytest.approx(4.0, abs=0.15)
    assert tab.final_order(1) == pytest.approx(3.0, abs=0.15)
    assert tab.hs == [2.0**-i for i in range(1, 6)]


def test_suboptimal_quadratic_case():
    u = builtin("sin4x")
    tab = convergence_study(u, "q", 2, 1, 2, (0,), levels=5)
    assert tab.final_order(0) == pytest.approx(2.0, abs=0.15)


def test_orders_stabilize():
    u = builtin("sin4x")
    for p in (2, 3):
        tab = convergence_study(u, "q", p, p - 1, 2, (0, 1), levels=5)
        for l in (0, 1):
            rates = tab.orders[l]
            assert abs(rates[-1] - rates[-2]) <= 0.3


def test_reproduction_of_space_members_gives_zero_errors():
    coeffs = [0.3, -1.2, 0.7]
    u = SmoothFunction(
        lambda x, d: Polynomial(coeffs, (0.0, 1.0)).eval(x, d), 99, "quadratic"
    )
    tab = convergence_study(u, "q", 2, 1, 2, (0,), levels=3)
    assert all(e <= 1e-10 for e in tab.errors[0])


def test_l2_error_monotone_under_refinement():
    u = builtin("runge")
    tab = convergence_study(u, "l2", 2, 1, 0, (0,), levels=5)
    errs = tab.errors[0]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))


def test_difference_study_orders():
    u = builtin("sin4x")
    tab = rq_difference_study(u, 3, 2, 2, (0, 1), levels=5)
    assert tab.final_order(0) == pytest.approx(4.0, abs=0.3)
    assert tab.final_order(1) == pytest.approx(4.0, abs=0.3)
    assert not any(tab.zero_flags)


def test_difference_study_matches_ritz_project_exactly():
    u = builtin("runge")
    tab = rq_difference_study(u, 4, 3, 2, (0, 1), levels=3)
    for i, xi in enumerate(Breakpoints.uniform(2**j) for j in range(1, 4)):
        space = make_space(4, 3, xi)
        diff = ritz_project(space, 2, u) - q_project(space, 2, u)
        assert tab.errors[0][i] == spline_norm(diff, 0)
        assert tab.errors[1][i] == spline_norm(diff, 1)


def test_difference_study_flags_coincident_projectors():
    u = builtin("sin4x")
    tab = rq_difference_study(u, 5, 4, 2, (0,), levels=2)
    assert all(tab.zero_flags)
    assert all(e <= 1e-9 for e in tab.errors[0])
    assert tab.meta["zero_expected"] is True


def test_grading_and_interval_are_configurable():
    u = builtin("exp")
    tab = convergence_study(
        u, "q", 2, 1, 1, (0,), levels=2, interval=(-1.0, 2.0), grading=1.5
    )
    assert tab.hs[0] > 1.5 / 2  # graded mesh has a cell wider than uniform


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------


def sample_table():
    return ConvergenceTable(
        {"study": "error", "p": 2},
        [0.5, 0.25],
        {0: [0.1, 0.025], 1: [0.2, 0.1]},
    )


def test_table_orders():
    tab = sample_table()
    assert tab.orders[0] == [pytest.approx(2.0)]
    assert tab.orders[1] == [pytest.approx(1.0)]
    assert tab.final_order(0) == pytest.approx(2.0)


def test_csv_layout():
    lines = sample_table().to_csv().strip().splitlines()
    assert lines[0] == "h,err_l0,err_l1,eoc_l0,eoc_l1"
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[3] == "" and first[4] == ""
    second = lines[2].split(",")
    assert float(second[3]) == pytest.approx(2.0)


def test_json_round_trip():
    payload = json.loads(sample_table().to_json())
    assert payload["meta"]["p"] == 2
    assert payload["errors"]["l0"] == [0.1, 0.025]
    assert payload["eoc"]["l1"] == [pytest.approx(1.0)]


def test_single_row_table_has_no_orders():
    tab = ConvergenceTable({}, [0.5], {0: [0.1]})
    assert tab.orders[0] == []
    with pytest.raises(ValueError):
        tab.final_order(0)
    assert "eoc_l0" in tab.to_csv().splitlines()[0]


# ---------------------------------------------------------------------------
# boundary and moment reports
# ---------------------------------------------------------------------------


def test_boundary_report_flags_and_residuals():
    u = builtin("x6")
    sp3 = make_space(3, 2, UNIT)
    rep = boundary_report(u, q_project(sp3, 2, u), 2)
    by_key = {(r.endpoint, r.l): r for r in rep}
    assert by_key[("b", 0)].applicable  # p=3 >= 2q-1
    assert by_key[("b", 0)].residual <= 1e-10
    assert by_key[("a", 0)].residual <= 1e-10
    assert by_key[("a", 1)].residual <= 1e-9

    sp2 = make_space(2, 1, UNIT)
    rep2 = boundary_report(u, q_project(sp2, 2, u), 2)
    by_key2 = {(r.endpoint, r.l): r for r in rep2}
    assert not by_key2[("b", 0)].applicable
    assert by_key2[("b", 0)].residual == pytest.approx(2.0, abs=1e-9)
    assert by_key2[("b", 1)].applicable  # p=2 >= 2q-l-1 for l=1


def test_boundary_report_random_cases(rng):
    for _ in range(8):
        p = int(rng.integers(2, 6))
        q = int(rng.integers(1, min(p, 3) + 1))
        space = make_space(p, p - 1, random_breakpoints(rng, 2))
        u = random_smooth(rng)
        rep = boundary_report(u, q_project(space, q, u), q)
        for r in rep:
            if r.applicable:
                assert r.scaled <= 1e-9, (p, q, r)


def test_moment_report_flags():
    u = builtin("x6")
    sp5 = make_space(5, 4, UNIT)
    rep = moment_report(u, q_project(sp5, 2, u), 2)
    means = {r.index: r for r in rep if r.kind == "mean"}
    moments = {r.index: r for r in rep if r.kind == "moment"}
    assert set(means) == {0, 1, 2} and set(moments) == {0, 1}
    for r in rep:
        if r.applicable:
            assert r.scaled <= 1e-9
    # x^0 and x^1 moments are conserved because p=5 >= 2q+i
    assert moments[0].applicable and moments[1].applicable

    sp1 = make_space(1, 0, UNIT)
    rep1 = moment_report(u, q_project(sp1, 1, u), 1)
    mean0 = next(r for r in rep1 if r.kind == "mean" and r.index == 0)
    assert not mean0.applicable  # needs quadratics
    assert mean0.residual > 1e-6  # and indeed the mean is missed


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_moment_report_matches_per_order_sums(rng, q):
    """Bit for bit against a loop that evaluates u and s anew for every sum."""
    space = make_space(4, 3, random_breakpoints(rng, 4))
    u = random_smooth(rng)
    s = ritz_project(space, q, u)
    xs, ws = mesh_points(space.breakpoints, default_order(4, space.breakpoints))
    flat, wflat = xs.ravel(), ws.ravel()
    want = []
    for l in range(q + 1):
        d = u.eval(flat, l) - eval_spline_many(s, flat, l)
        want.append(("mean", l, np.sum(d * wflat), np.sum(u.eval(flat, l) * wflat)))
    e0 = u.eval(flat) - eval_spline_many(s, flat)
    for i in range(q):
        want.append(("moment", i, np.sum(e0 * flat**i * wflat),
                     np.sum(u.eval(flat) * flat**i * wflat)))
    got = moment_report(u, s, q)
    assert [(r.kind, r.index) for r in got] == [w[:2] for w in want]
    for r, (_, _, res, ref) in zip(got, want):
        assert r.residual == abs(float(res))
        assert r.scaled == abs(float(res)) / max(1.0, abs(float(ref)))
