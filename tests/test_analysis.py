import itertools
import json

import numpy as np
from numpy.polynomial import polynomial as npp
import pytest

from ritzspline import analysis, cli
from ritzspline.analysis import (
    ConvergenceTable,
    boundary_report,
    convergence_study,
    error_norm,
    function_seminorm,
    moment_report,
    project_report,
    rq_difference_study,
)
from ritzspline.functions import SmoothFunction, builtin, from_expression
from ritzspline.mesh import (
    Breakpoints,
    Spline,
    eval_spline_many,
    make_space,
    poly_to_spline,
)
from ritzspline.projectors import Levels, l2_project, q_project, ritz_project
from ritzspline.quadrature import default_order, mesh_points

from conftest import project_one, random_breakpoints, random_smooth, smooth_mix, spline_norm

UNIT = Breakpoints(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_error_norm_of_linear_against_zero():
    u = SmoothFunction(
        lambda x, orders: [x if d == 0 else np.full_like(x, float(d == 1)) for d in orders],
        10,
        "x",
    )
    zero = Spline(make_space(0, -1, UNIT), [0.0])
    assert error_norm(u, zero) == pytest.approx(1 / np.sqrt(3), rel=1e-13)


def test_error_norm_second_derivative_closed_form():
    # the residual x^6 - 3x^2 has |d^2| norm exactly 8 on [0, 1]
    u = builtin("x6")
    s = poly_to_spline([0.0, 0.0, 3.0], make_space(2, 1, UNIT))
    assert error_norm(u, s, 2) == pytest.approx(8.0, rel=1e-13)


def test_error_norm_vanishes_for_members(rng):
    space = make_space(3, 2, random_breakpoints(rng, 3))
    s = Spline(space, rng.normal(size=space.dim))
    u = SmoothFunction(lambda x, orders: eval_spline_many(s, x, orders), 2, "member")
    for l in range(space.smoothness + 1):
        assert error_norm(u, s, l) <= 1e-11


def test_error_norm_order_guard():
    u = SmoothFunction(lambda x, orders: np.zeros((len(orders), *x.shape)), 1, "flat")
    s = Spline(make_space(0, -1, UNIT), [0.0])
    with pytest.raises(ValueError):
        error_norm(u, s, 2)
    with pytest.raises(ValueError) as err:
        error_norm(u, s, -1)
    assert str(err.value) == "requires 0 <= l <= max_order=1: got l=-1"


def test_spline_norm_matches_error_norm(rng):
    space = make_space(2, 1, random_breakpoints(rng, 2))
    s = Spline(space, rng.normal(size=space.dim))
    zero = SmoothFunction(lambda x, orders: np.zeros((len(orders), *x.shape)), 99, "0")
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
    assert tab.orders[0][-1] == pytest.approx(4.0, abs=0.15)
    assert tab.orders[1][-1] == pytest.approx(3.0, abs=0.15)
    assert tab.hs == [2.0**-i for i in range(1, 6)]


def test_suboptimal_quadratic_case():
    u = builtin("sin4x")
    tab = convergence_study(u, "q", 2, 1, 2, (0,), levels=5)
    assert tab.orders[0][-1] == pytest.approx(2.0, abs=0.15)


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
        lambda x, orders: [npp.polyval(x, npp.polyder(coeffs, d)) for d in orders], 99, "quadratic"
    )
    tab = convergence_study(u, "q", 2, 1, 2, (0,), levels=3)
    assert all(e <= 1e-10 for e in tab.errors[0])


def test_l2_error_monotone_under_refinement():
    u = builtin("runge")
    tab = convergence_study(u, "l2", 2, 1, 0, (0,), levels=5)
    errs = tab.errors[0]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("levels", [0, -1])
def test_studies_reject_levels_below_one(levels):
    u = builtin("sin4x")
    with pytest.raises(ValueError, match="levels >= 1"):
        convergence_study(u, "q", 2, 1, 1, (0,), levels=levels)
    with pytest.raises(ValueError, match="levels >= 1"):
        rq_difference_study(u, 2, 1, 1, (0,), levels=levels)


def test_difference_study_orders():
    u = builtin("sin4x")
    tab = rq_difference_study(u, 3, 2, 2, (0, 1), levels=5)
    assert tab.orders[0][-1] == pytest.approx(4.0, abs=0.3)
    assert tab.orders[1][-1] == pytest.approx(4.0, abs=0.3)
    assert not any(tab.zero_flags)


def test_difference_study_matches_ritz_project_exactly():
    u = builtin("runge")
    tab = rq_difference_study(u, 4, 3, 2, (0, 1), levels=3)
    for i, xi in enumerate(Breakpoints.uniform(2**j) for j in range(1, 4)):
        space = make_space(4, 3, xi)
        diff = ritz_project(space, 2, u) - q_project(space, 2, u)
        assert tab.errors[0][i] == spline_norm(diff, 0)
        assert tab.errors[1][i] == spline_norm(diff, 1)


def _norm_per_order(d, w):
    return float(np.sqrt(np.sum(d * d * w)))


@pytest.mark.parametrize("grading", [1.0, 2.0])
def test_studies_match_per_order_loops(grading):
    """Bit for bit against loops that evaluate u and s anew for every order."""
    u = builtin("runge")
    l_set = (2, 0, 1)
    err = convergence_study(u, "ritz", 4, 3, 2, l_set, levels=3, grading=grading)
    diff = rq_difference_study(u, 4, 3, 2, l_set, levels=3, grading=grading)
    for i, j in enumerate(range(1, 4)):
        space = make_space(4, 3, Breakpoints.uniform(2**j, grading=grading))
        qs = q_project(space, 2, u)
        s = ritz_project(space, 2, u)
        xs, ws = mesh_points(space.breakpoints, default_order(4, space.breakpoints))
        flat, w = xs.ravel(), ws.ravel()
        exact_xs, exact_ws = mesh_points(space.breakpoints, default_order(4))
        for l in l_set:
            d = u.eval(flat, l) - eval_spline_many(s, flat, l)
            assert err.errors[l][i] == _norm_per_order(d, w)
            d = eval_spline_many(s - qs, exact_xs.ravel(), l)
            assert diff.errors[l][i] == _norm_per_order(d, exact_ws.ravel())


@pytest.mark.parametrize("projector", ["l2", "q", "ritz", "qtilde"])
@pytest.mark.parametrize("grading", [1.0, 2.0])
def test_batched_study_is_each_level_alone(projector, grading):
    """A study samples all its levels at once; every level's errors, Ritz
    correction and projection are those of a level sampled alone, bit for
    bit, whichever orders its sample holds, for a builtin and a parsed
    target."""
    from ritzspline.projectors import ritz_correction

    l_set = (1, 0, 2)
    for u in (builtin("sin4x"), from_expression("exp(x)*sin(3*x)+x^5/(1+x^2)")):
        tab = convergence_study(u, projector, 3, 2, 2, l_set, levels=4, grading=grading)
        meshes = [Breakpoints.uniform(2**j, grading=grading) for j in range(1, 5)]
        spaces = [make_space(3, 2, xi) for xi in meshes]
        qss = Levels(u, spaces).project("q", 2)
        ends = np.cumsum([space.dim for space in spaces])[:-1]
        for i, (space, qs) in enumerate(zip(spaces, np.split(qss, ends))):
            level = Levels(u, [space], (0, 1, 2))
            s = project_one(projector, space, 2, u)
            assert [tab.errors[l][i] for l in l_set] == error_norm(u, s, l_set)
            assert np.array_equal(level.project(projector, 2), s.coeffs)
            assert np.array_equal(qs, q_project(space, 2, u).coeffs)
            assert np.array_equal(level.correction(2)[0], ritz_correction(space, 2, u))


def test_norms_take_a_sequence_of_orders(rng):
    space = make_space(3, 1, random_breakpoints(rng, 3))
    u = random_smooth(rng)
    s = l2_project(space, u)
    assert error_norm(u, s, [1, 0, 3]) == [error_norm(u, s, l) for l in (1, 0, 3)]
    assert error_norm(u, s, ()) == []
    with pytest.raises(ValueError, match="max_order"):
        error_norm(u, s, [0, u.max_order + 1])


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
    exact = ConvergenceTable({}, [0.5, 0.25, 0.125], {0: [0.1, 0.0, 0.0], 1: [0.0, 0.1, 0.05]})
    assert np.isnan(exact.orders[0]).all()
    assert np.isnan(exact.orders[1][0]) and exact.orders[1][1] == pytest.approx(1.0)


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
    assert "eoc_l0" in tab.to_csv().splitlines()[0]


def test_csv_formats_floats_at_17_digits_and_other_fields_as_str():
    rows = [
        (float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324),
        (np.float64(0.1), np.float64(-0.0), np.float64("nan"), 1 / 3, 1e17, 1e16, 123456789.0),
        (np.bool_(True), np.bool_(False), None, "", "a b", "x,y", 7, True, np.int64(-7)),
        [],
    ]
    assert analysis._csv("a,b", rows) == (
        "a,b\n"
        "nan,nan,inf,-inf,-0,0,4.9406564584124654e-324\n"
        "0.10000000000000001,-0,nan,0.33333333333333331,1e+17,10000000000000000,123456789\n"
        "True,False,None,,a b,x,y,7,True,-7\n"
        "\n"
    )
    assert analysis._csv("h", []) == "h\n"


def test_real_payloads_are_indent_2_json(tmp_path):
    """The three JSON writers, each fed a real payload, write what
    ``json.dumps`` writes at ``indent=2``: an eig spectrum, an rq-diff table
    with exact-zero flags, and a ritz report with its correction."""
    assert cli.main(["eig", "--p", "3", "--elements", "20", "--out", str(tmp_path)]) == 0
    argv = ["project", "--function", "sin4x", "--p", "4", "--q", "2", "--projector",
            "ritz", "--uniform", "7", "--format", "json", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    texts = [
        (tmp_path / "spectrum.json").read_text(),
        rq_difference_study(builtin("sin4x"), 2, 1, 1, (0, 1), levels=3).to_json(),
        (tmp_path / "report.json").read_text(),
    ]
    spectrum, table, report = payloads = [json.loads(text) for text in texts]
    assert len(spectrum["lambda_h"]) == 19
    assert table["exact_zero"] == [True, True, True]
    assert len(report["correction"]) == 2 and report["moments"]
    for text, payload in zip(texts, payloads):
        assert text == json.dumps(payload, indent=2) + "\n"


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


_BOUNDARY_MESHES = {
    "random": lambda rng: random_breakpoints(rng, 3, a=-1.0, b=2.0),
    "uniform": lambda rng: Breakpoints.uniform(6),
    "graded": lambda rng: Breakpoints.uniform(8, grading=3.0),
    "far": lambda rng: Breakpoints.uniform(5, 1e6, 1e6 + 1.0),
}


def test_boundary_report_matches_eval_spline_loop(rng):
    """One evaluation of s at both endpoints for every order and one of u
    per endpoint give the residuals of one eval_spline_many call per order
    at both endpoints and one scalar u.eval call per endpoint and order, bit
    for bit, for a closed-form u and a parsed one."""
    for mesh, make in _BOUNDARY_MESHES.items():
        xi = make(rng)
        far = mesh == "far"  # exp(x) overflows there
        targets = (
            smooth_mix(1.3, 4.0, 0.7, 1e-6, rng.normal(size=4)) if far else random_smooth(rng),
            from_expression("sin(3*x)+x^3/(1+x^2)" if far else "exp(x/4)*sin(3*x)+x^5/(1+x^2)"),
        )
        cases = [(p, q) for p in range(9) for q in range(1, 4)] + [(20, 4)] * (mesh == "random")
        for (p, q), u in itertools.product(cases, targets):
            space = make_space(p, p - 1, xi)
            s = Spline(space, rng.normal(size=space.dim))
            rep = boundary_report(u, s, q)
            assert len(rep) == 2 * q
            for r in rep:
                x = xi.a if r.endpoint == "a" else xi.b
                want = u.eval(x, r.l)
                got = eval_spline_many(s, [xi.a, xi.b], r.l)[int(r.endpoint == "b")]
                res = abs(float(got) - want)
                assert (r.residual, r.scaled) == (res, res / max(1.0, abs(want))), (mesh, p, q, r)


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
    for l_max in range(q + 1):
        errors, moments = project_report(Levels(u, [space], range(q + 1)), s, q, l_max)
        assert moments == got
        assert errors == {l: error_norm(u, s, l) for l in range(l_max + 1)}
        for l in range(l_max + 1):
            d = u.eval(flat, l) - eval_spline_many(s, flat, l)
            assert errors[l] == float(np.sqrt(np.sum(d * d * wflat)))


def test_project_report_rejects_a_spline_of_another_space():
    """The report reads its level's sample: a spline of another space of
    the same degree would be measured against the wrong basis."""
    u = builtin("sin4x")
    level = Levels(u, [make_space(3, 2, Breakpoints.uniform(8))], range(3))
    for other in (
        make_space(3, 2, Breakpoints.uniform(9)),
        make_space(3, 2, Breakpoints.uniform(8, grading=2.0)),
        make_space(3, 1, Breakpoints.uniform(8)),
        make_space(2, 1, Breakpoints.uniform(8)),
    ):
        with pytest.raises(ValueError, match="requires a spline in the space of the level"):
            project_report(level, q_project(other, 2, u), 2, 2)


def test_project_report_requires_its_orders_in_the_sample():
    """The orders l <= max(q, l_max) the report reads must be tabulated in
    the level's sample, as its docstring states: a level built for l = 0
    alone names the orders it lacks."""
    u = builtin("sin4x")
    space = make_space(3, 2, Breakpoints.uniform(8))
    with pytest.raises(ValueError, match=r"^requires orders the grid table holds: "
                                         r"got \[1, 2\], tabulated \[0\]$"):
        project_report(Levels(u, [space]), q_project(space, 2, u), 2, 2)


@pytest.mark.parametrize("l_set,message", [
    ((0, 0), r"requires distinct values in l_set: got \[0, 0\]"),
    ((1, 0, 1), r"requires distinct values in l_set: got \[1, 0, 1\]"),
    ((), "requires a nonempty l_set"),
])
def test_studies_reject_repeated_or_empty_orders(l_set, message):
    """A repeated order would list its errors twice against one h per level,
    and no order gives an empty table."""
    u = builtin("sin4x")
    with pytest.raises(ValueError, match=message):
        convergence_study(u, "q", 3, 2, 2, l_set, 3)
    with pytest.raises(ValueError, match=message):
        rq_difference_study(u, 3, 2, 2, l_set, 3)
