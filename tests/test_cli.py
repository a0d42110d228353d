import json
import warnings

import numpy as np
import pytest

from ritzspline.cli import build_parser, main


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_reproduces_quadratic(tmp_path, capsys):
    out = tmp_path / "p"
    rc = run(
        [
            "project", "--function", "x^6", "--p", "2", "--k", "1", "--q", "2",
            "--projector", "q", "--uniform", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = (out / "coefficients.csv").read_text().strip().splitlines()[1:]
    coeffs = np.array([float(r.split(",")[1]) for r in rows])
    # B-form of 3x^2 on [0,1]: (0, 0, 3)
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 3.0], atol=1e-10)
    assert (out / "knots.csv").exists()
    assert (out / "boundary.csv").exists()
    assert (out / "moments.csv").exists()


def test_project_ritz_emits_correction(tmp_path):
    out = tmp_path / "r"
    rc = run(
        [
            "project", "--function", "x^6", "--p", "2", "--k", "1", "--q", "2",
            "--projector", "ritz", "--uniform", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = (out / "correction.csv").read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    np.testing.assert_allclose(vals, [9 / 28, -33 / 14], atol=1e-10)


def test_project_json_format(tmp_path):
    out = tmp_path / "j"
    rc = run(
        [
            "project", "--function", "sin(4*x)", "--p", "3", "--q", "2",
            "--uniform", "3", "--out", str(out), "--format", "json",
        ]
    )
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["k"] == 2  # defaults to maximal smoothness
    assert len(payload["coefficients"]) == 4 + 3
    assert "l0" in payload["errors"] and "l2" in payload["errors"]


def test_project_missing_function_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["project", "--p", "2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_project_validation_failure_names_precondition(tmp_path, capsys):
    rc = run(
        [
            "project", "--function", "x^6", "--p", "3", "--k", "1", "--q", "3",
            "--uniform", "0", "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "q <= k+1" in capsys.readouterr().err


def test_project_bad_expression_exit_2(tmp_path, capsys):
    rc = run(
        [
            "project", "--function", "si(4*x)", "--p", "2",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "unknown identifier" in capsys.readouterr().err


def test_project_overflowing_constant_power_exit_2(tmp_path, capsys):
    """A folded constant power past the double range fails on the named
    finiteness precondition, as exp(1000) does, not as an internal error."""
    for function in ("(1e200)^2*x", "exp(1000)*x"):
        rc = run(
            [
                "project", "--function", function, "--p", "2", "--q", "1",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "requires u finite" in capsys.readouterr().err


def test_project_explicit_breakpoints(tmp_path):
    out = tmp_path / "bp"
    rc = run(
        [
            "project", "--function", "exp(x)", "--p", "2", "--q", "1",
            "--breakpoints", "0,0.25,0.75,1", "--out", str(out),
        ]
    )
    assert rc == 0
    knots = [float(r.split(",")[1]) for r in (out / "knots.csv").read_text().strip().splitlines()[1:]]
    assert knots[0] == 0.0 and knots[-1] == 1.0 and 0.25 in knots


@pytest.mark.parametrize("mesh", [
    ["--breakpoints", "0,inf"],
    ["--uniform", "3", "--interval", "0", "inf"],
    ["--breakpoints", "0,nan,1"],
])
def test_project_rejects_nonfinite_breakpoints(tmp_path, capsys, mesh):
    out = tmp_path / "nf"
    rc = run(["project", "--function", "sin4x", "--p", "3", "--q", "1", *mesh, "--out", str(out)])
    assert rc == 2
    assert "breakpoints must be finite" in capsys.readouterr().err
    assert not out.exists()


# Each case once exited 0 writing inf or nan, or failed inside scipy or on
# a Gauss point outside the mesh.
UNRESOLVED = {
    "derivative-order-project": (
        ["project", "--function", "sin4x", "--p", "20", "--q", "20", "--breakpoints", "0,1e-17,1"],
        "requires derivative orders that double precision resolves on elements of width "
        "1e-17: order 11 gives inf",
    ),
    "derivative-order-converge": (
        ["converge", "--function", "sin4x", "--p-list", "3", "--q", "2", "--l-list", "0,2",
         "--levels", "2", "--interval", "0", "1e-160"],
        "requires derivative orders that double precision resolves on elements of width "
        "2.5e-161: order 2 gives nan",
    ),
    "subnormal-element": (
        ["project", "--function", "sin4x", "--p", "2", "--q", "1", "--breakpoints", "0,1e-310,1"],
        "requires elements wide enough in double precision: width 1e-310 is below the smallest "
        "normal double",
    ),
    "one-ulp-element": (
        ["project", "--function", "sin4x", "--p", "3", "--q", "2",
         "--breakpoints", "1,1.0000000000000002,2"],
        "requires elements wide enough in double precision that no Gauss point rounds onto a "
        "breakpoint: element [1.0, 1.0000000000000002] has width 2.22e-16",
    ),
}


@pytest.mark.parametrize("case", sorted(UNRESOLVED))
def test_what_double_precision_cannot_resolve_exits_2(tmp_path, capsys, case):
    argv, message = UNRESOLVED[case]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Each case once reached the user as Python's own message, or exited 1 on
# an exceeded recursion depth.
BAD_INPUT = {
    "nested-parentheses": (
        ["project", "--function", "(" * 300 + "x" + ")" * 300, "--p", "2"],
        "requires parentheses and calls nested at most 200 deep (at position 201)",
    ),
    "long-sum": (
        ["project", "--function", "+".join(["x"] * 1500), "--p", "2"],
        "requires an expression tree at most 500 levels deep, one per operator of a chain: "
        "got 1500",
    ),
    "superscript-exponent": (
        ["project", "--function", "x^\u00b2", "--p", "2"],
        "expected unsigned integer exponent (at position 2)",
    ),
    "fixed-smoothness": (
        ["converge", "--function", "sin4x", "--p-list", "2", "--k", "fixed:x", "--q", "1"],
        "--k must be 'max' or 'fixed:K' with K an integer: got 'fixed:x'",
    ),
    "breakpoints": (
        ["project", "--function", "sin4x", "--p", "2", "--breakpoints", "0,a,1"],
        "expected a comma-separated number list: got '0,a,1'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2_naming_what_was_expected(tmp_path, capsys, case):
    argv, message = BAD_INPUT[case]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("function,same_as", [
    ("(" * 200 + "x" + ")" * 200, "x"),
    ("x^\u0663", "x^3"),  # an Arabic-Indic three: a decimal digit, as int reads it
    ("+".join(["x"] * 400), None),
])
def test_deepest_accepted_expressions(tmp_path, function, same_as):
    out = tmp_path / "o"
    assert run(["project", "--function", function, "--p", "2", "--q", "1", "--out", str(out)]) == 0
    if same_as is not None:
        ref = tmp_path / "ref"
        assert run(["project", "--function", same_as, "--p", "2", "--q", "1",
                    "--out", str(ref)]) == 0
        for name in ("coefficients.csv", "errors.csv", "boundary.csv", "moments.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["project", "--function", "sin4x", "--p", "2", "--q", "1", "--uniform", "3"],
    ["converge", "--function", "sin4x", "--p-list", "2", "--q", "1", "--levels", "3"],
])
def test_interval_wider_than_the_double_range_over_64_exits_2(tmp_path, capsys, argv):
    """The smooth-factor width 64 h / (b - a) is formed without overflowing."""
    out = tmp_path / "o"
    assert run([*argv, "--interval", "0", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: requires")
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["project", "--function", "sin4x", "--p", "2", "--q", "1", "--uniform", "3"],
     "d^1/dx^1 of sin(4x)"),
    (["converge", "--function", "sin4x", "--p-list", "2", "--q", "1", "--levels", "3"],
     "sin(4x)"),
], ids=["project", "converge"])
def test_elements_near_the_double_range_name_the_nonfinite_u(tmp_path, capsys, argv, name):
    """Element midpoints past 9e307 are formed without overflowing, so the
    wide elements are accepted and the nonfinite u is what is named."""
    out = tmp_path / "o"
    assert run([*argv, "--interval", "0", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: requires u finite on the interval: derivative 0 of {name} "
                          "is nan at x=4."), err
    assert "wide enough" not in err
    assert not out.exists()


def test_project_names_the_function_it_cannot_evaluate(tmp_path, capsys):
    """Order 0 of u is u itself, not a derivative of it."""
    assert run(["project", "--function", "1e999", "--p", "2", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: requires u finite on the interval: derivative 0 of 1e999 is inf")


def test_project_ritz_computes_q_once(tmp_path, monkeypatch):
    """The Ritz projection and the correction it writes share one Q."""
    from ritzspline import projectors

    calls = []
    ritz_types = projectors._ritz_types
    monkeypatch.setattr(projectors, "_ritz_types",
                        lambda levels, q, m: calls.append(m) or ritz_types(levels, q, m))
    rc = run(["project", "--function", "sin4x", "--p", "3", "--q", "2", "--projector", "ritz",
              "--uniform", "7", "--out", str(tmp_path / "r")])
    assert rc == 0
    assert calls == [0]
    assert (tmp_path / "r" / "correction.csv").exists()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_writes_tables_and_svg(tmp_path):
    out = tmp_path / "cv"
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "2,3", "--q", "2",
            "--l-list", "0,1", "--levels", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    for p in (2, 3):
        for l in (0, 1):
            assert (out / f"error_p{p}_l{l}.csv").exists()
    svg = (out / "error.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_converge_single_level_has_blank_eoc(tmp_path):
    out = tmp_path / "cv1"
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "2", "--q", "2",
            "--l-list", "0", "--levels", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "error_p2_l0.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",")  # eoc column empty on the only row
    assert not (out / "error.svg").exists()


def test_converge_rejects_l_above_q(tmp_path, capsys):
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "3", "--q", "1",
            "--l-list", "0,2", "--levels", "2", "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "l <= q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p_list,l_list,message",
    [
        ("3", "0,0", "requires distinct values in --l-list: got [0, 0]"),
        ("", "0", "requires a nonempty --p-list"),
        ("3", "", "requires a nonempty --l-list"),
        ("3,3", "0", "requires distinct values in --p-list: got [3, 3]"),
    ],
)
@pytest.mark.parametrize("study", ["error", "rq-diff"])
def test_converge_rejects_repeated_or_empty_lists(tmp_path, capsys, study, p_list, l_list, message):
    """Each p names a file and each l a column and a file: a repeated or
    missing one would write a table twice, or no table and an empty plot."""
    out = tmp_path / "x"
    rc = run(
        [
            "converge", "--function", "sin4x", "--p-list", p_list, "--q", "2",
            "--l-list", l_list, "--levels", "2", "--study", study, "--out", str(out),
        ]
    )
    assert rc == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grading", ["-1", "0", "nan", "inf"])
def test_converge_rejects_nonpositive_grading(tmp_path, capsys, grading):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(
            [
                "converge", "--function", "sin(4*x)", "--p-list", "2", "--q", "1",
                "--l-list", "0", "--levels", "2", "--grading", grading,
                "--out", str(tmp_path / "g"),
            ]
        )
    assert rc == 2
    assert "grading" in capsys.readouterr().err
    assert not caught


@pytest.mark.parametrize("function", ["exp", "exp(x)"])
def test_project_rejects_overflowing_function(tmp_path, function):
    # a separate process, so any numpy warning would reach stderr as printed
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "ritzspline.cli", "project", "--function", function,
            "--p", "3", "--q", "1", "--interval", "1e6", "1000001", "--uniform", "3",
            "--out", "x",
        ],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "requires u finite on the interval" in proc.stderr
    assert "x=1000000.0" in proc.stderr
    assert "infs or NaNs" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("study", ["error", "rq-diff"])
@pytest.mark.parametrize("levels", ["0", "-1"])
def test_converge_rejects_levels_below_one(tmp_path, capsys, study, levels):
    out = tmp_path / "lv"
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "2", "--q", "1",
            "--l-list", "0", "--levels", levels, "--study", study, "--out", str(out),
        ]
    )
    assert rc == 2
    assert "levels >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", ["error", "rq-diff"])
def test_converge_rejects_levels_above_max_levels(tmp_path, capsys, monkeypatch, study):
    """2^40 elements: rejected before any mesh is built (a mesh built here
    fails the test instead of allocating)."""
    from ritzspline import analysis

    def no_mesh(*args, **kwargs):
        raise AssertionError("a study mesh was built")

    monkeypatch.setattr(analysis.Breakpoints, "uniform", no_mesh)
    out = tmp_path / "big"
    rc = run(
        [
            "converge", "--function", "sin4x", "--p-list", "3", "--q", "1",
            "--l-list", "0", "--levels", "40", "--study", study, "--out", str(out),
        ]
    )
    assert rc == 2
    assert f"levels <= MAX_LEVELS = {analysis.MAX_LEVELS}" in capsys.readouterr().err
    assert not out.exists()


def test_converge_rq_diff_study(tmp_path):
    out = tmp_path / "rq"
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "3", "--q", "2",
            "--l-list", "0", "--levels", "3", "--study", "rq-diff",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "rq-diff_p3_l0.csv").exists()
    assert (out / "rq-diff.svg").exists()


def test_converge_fixed_smoothness(tmp_path):
    out = tmp_path / "fx"
    rc = run(
        [
            "converge", "--function", "sin(4*x)", "--p-list", "3", "--k", "fixed:1",
            "--q", "2", "--l-list", "0", "--levels", "2", "--out", str(out),
        ]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_c_table(capsys):
    rc = run(["constants", "--table", "c", "--p", "3", "--k", "2", "--r", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p,k,r,c"
    assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(0.1013211836, abs=1e-9)


def test_constants_d_table(capsys):
    rc = run(["constants", "--table", "d", "--p", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0"


def test_constants_schultz_gap_all_nonnegative(capsys):
    rc = run(["constants", "--table", "schultz-gap", "--q-max", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == sum(q for q in range(1, 9))
    assert all(float(line.split(",")[2]) >= -1e-12 for line in lines)


def test_constants_schultz_gap_to_q_200(capsys):
    """Past q = 88 one constant underflows, past q = 170 a factorial
    overflows a float; the gap is taken from their logs."""
    rc = run(["constants", "--table", "schultz-gap", "--q-max", "200"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(lines) == sum(range(1, 201))
    assert all(float(line.split(",")[2]) >= 0.0 for line in lines)


def test_constants_bounds_table(capsys):
    rc = run(
        [
            "constants", "--table", "bounds", "--p", "3", "--k", "2", "--q", "2",
            "--r", "4", "--h", "0.125",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = lines[1].split(",")
    assert first[1] == "error"
    assert float(first[2]) == pytest.approx((0.125 / np.pi) ** 4, rel=1e-12)
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"error", "broken", "difference"}


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--h", "0.5", "--length", "0"], "requires length finite and > 0: got length=0.0"),
        (["--h", "0.125", "--length", "-1"], "requires length finite and > 0: got length=-1.0"),
        (["--h", "inf"], "requires h finite and > 0: got h=inf"),
        (["--h", "nan"], "requires h finite and > 0: got h=nan"),
    ],
)
def test_constants_bounds_rejects_bad_lengths_and_steps(capsys, extra, message):
    rc = run(["constants", "--table", "bounds", "--p", "3", "--k", "2", "--q", "2",
              "--r", "4", *extra])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_constants_out_of_range_is_exit_2(capsys):
    rc = run(["constants", "--table", "c", "--p", "1", "--k", "0", "--r", "5"])
    assert rc == 2
    assert "p >= r-1" in capsys.readouterr().err


def test_constants_missing_params(capsys):
    rc = run(["constants", "--table", "c", "--p", "3"])
    assert rc == 2


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def test_eig_outputs(tmp_path, capsys):
    out = tmp_path / "eig"
    rc = run(["eig", "--p", "3", "--elements", "20", "--out", str(out)])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,lambda_h,lambda_ref,rel_err,predicted_flag,observed_flag"
    lam1 = float(lines[1].split(",")[1])
    assert lam1 == pytest.approx(500.564, rel=5e-3)
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["n"] == 19
    assert (out / "spectrum.svg").read_text().startswith("<svg")


def test_eig_threshold_one(tmp_path):
    out = tmp_path / "eig1"
    rc = run(["eig", "--p", "3", "--elements", "8", "--threshold", "1.0", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["observed_outliers"] == []


def test_eig_modes_past_cosh_overflow(tmp_path):
    """240 elements reach reference modes with mu > 710, where cosh overflows."""
    out = tmp_path / "eig240"
    rc = run(["eig", "--p", "3", "--elements", "240", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["n"] == 239
    assert all(np.isfinite(payload["lambda_ref"]))


def test_eig_fine_mesh_accepted(tmp_path, capsys):
    """400 elements: the eigenpair check scales with the matrix norms, so a
    correct spectrum is not rejected for its large eigenvalues."""
    out = tmp_path / "eig400"
    rc = run(["eig", "--p", "3", "--elements", "400", "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    eta = float(summary.split("backward_error=")[1])
    assert 0.0 < eta <= 1e-12
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["n"] == 399 and "backward_error" not in payload
    assert "backward_error" not in (out / "spectrum.csv").read_text()


def test_eig_low_degree_exit_2(tmp_path, capsys):
    rc = run(["eig", "--p", "1", "--elements", "8", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "p >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and environment override
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(
            [
                "converge", "--function", "sin(4*x)", "--p-list", "2", "--q", "2",
                "--l-list", "0", "--levels", "3", "--out", str(out),
            ]
        )
        assert rc == 0
    assert (a / "error_p2_l0.csv").read_bytes() == (b / "error_p2_l0.csv").read_bytes()
    assert (a / "error.svg").read_bytes() == (b / "error.svg").read_bytes()


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_parser_is_shared_and_calls_start_from_defaults(tmp_path, monkeypatch, capsys):
    """A call's options do not leak into the next call in the same process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    assert build_parser() is build_parser()
    base = ["project", "--function", "sin4x", "--p", "4", "--q", "2",
            "--projector", "ritz", "--out", "out"]
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(inproc)
    assert run(base[:-1] + ["first", "--k", "2", "--format", "json",
                            "--interval", "1", "3"]) == 0
    capsys.readouterr()
    assert run(base) == 0
    stdout = capsys.readouterr().out

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; from ritzspline.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *base], cwd=fresh, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert stdout == proc.stdout
    assert "coefficients.csv" in stdout
    assert _tree_bytes(inproc / "out") == _tree_bytes(fresh / "out")


def test_failed_parse_does_not_break_the_next_call(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["project", "--function", "sin4x", "--p", "3", "--no-such-option"])
    assert exc.value.code == 2
    assert run(["eig", "--p", "3", "--elements", "8", "--out", str(tmp_path)]) == 0


def test_internal_failure_is_exit_1(tmp_path, monkeypatch, capsys):
    import ritzspline.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setattr(cli.eigenproblem, "solve_biharmonic", boom)
    rc = run(["eig", "--p", "3", "--elements", "8", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "internal error" in capsys.readouterr().err


def test_quad_order_env_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = [
        "project", "--function", "sin(4*x)", "--p", "1", "--k", "0", "--q", "1",
        "--uniform", "0",
    ]
    rc = run(args + ["--out", str(out1)])
    assert rc == 0
    monkeypatch.setenv("RITZ_SPLINE_QUAD_ORDER", "2")
    rc = run(args + ["--out", str(out2)])
    assert rc == 0
    # a 2-point rule cannot integrate the sine loads exactly: outputs differ
    assert (out1 / "coefficients.csv").read_text() != (out2 / "coefficients.csv").read_text()


@pytest.mark.parametrize("value, message", [
    ("1", "RITZ_SPLINE_QUAD_ORDER must lie in [4, 64]: got 1"),
    ("abc", "RITZ_SPLINE_QUAD_ORDER must be an integer: got 'abc'"),
    ("9.0", "RITZ_SPLINE_QUAD_ORDER must be an integer: got '9.0'"),
], ids=["below", "abc", "float"])
def test_quad_order_env_below_exact_order_exits_2(tmp_path, monkeypatch, capsys, value, message):
    monkeypatch.setenv("RITZ_SPLINE_QUAD_ORDER", value)
    rc = run(
        [
            "project", "--function", "sin(4*x)", "--p", "3", "--uniform", "3",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err


def test_project_json_reports_quadrature_orders(tmp_path, monkeypatch):
    args = [
        "project", "--function", "sin(4*x)", "--p", "3", "--q", "2",
        "--projector", "ritz", "--uniform", "3", "--format", "json",
    ]
    assert run(args + ["--out", str(tmp_path / "d")]) == 0
    record = json.loads((tmp_path / "d" / "report.json").read_text())["quadrature"]
    # Galerkin system in the degree-1 derived space; 4 elements, so the
    # smooth factor gets 64/4 = 16 points per element
    assert record == {
        "load_vector": 16, "gram_matrix": 2, "error_norms": 16, "override": False,
    }
    monkeypatch.setenv("RITZ_SPLINE_QUAD_ORDER", "9")
    assert run(args + ["--out", str(tmp_path / "o")]) == 0
    record = json.loads((tmp_path / "o" / "report.json").read_text())["quadrature"]
    assert record == {
        "load_vector": 9, "gram_matrix": 9, "error_norms": 9, "override": True,
    }


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("projector", ["l2", "q", "ritz", "qtilde"])
def test_project_json_quadrature_names_the_tabulated_grids(
    tmp_path, monkeypatch, projector, override
):
    """The ``quadrature`` record names the per-element Gauss orders of the
    grids the projection tabulates: ``gauss_orders`` restates the choices
    that ``_ritz_types`` and ``Levels.sample`` make each for themselves.
    At q >= 1 the L2 step tabulates its load grid, on the derived spaces,
    and its Gram grid; at q = 0 it tabulates the Gram grid alone, and its
    load grid is the sample."""
    import ritzspline.projectors as projectors
    import ritzspline.quadrature as quadrature

    if override:
        monkeypatch.setenv("RITZ_SPLINE_QUAD_ORDER", "9")
    p, tabulated = 4, {}

    def grid_table(spaces, ns, orders, u=None):
        table = quadrature.grid_table(spaces, ns, orders, u)
        if u is None:
            kind = "gram_matrix"
        else:  # the load grid of u^(q), q >= 1, lies on the derived spaces
            kind = "error_norms" if spaces[0].degree == p else "load_vector"
        tabulated.setdefault(kind, set()).add(table.ns)
        return table

    monkeypatch.setattr(projectors, "grid_table", grid_table)
    for q in range(4):
        tabulated.clear()
        out = tmp_path / f"q{q}"
        assert run([
            "project", "--function", "sin4x", "--p", str(p), "--q", str(q), "--projector",
            projector, "--breakpoints", "0,0.1,0.35,0.4,0.7,0.85,1", "--format", "json",
            "--out", str(out),
        ]) == 0
        record = json.loads((out / "report.json").read_text())["quadrature"]
        if projectors.projection_order(projector, q) == 0:
            tabulated["load_vector"] = tabulated["error_norms"]
        assert tabulated == {kind: {(record[kind],)} for kind in tabulated}
        assert set(tabulated) == {"load_vector", "gram_matrix", "error_norms"}
        assert record["override"] is override


# ---------------------------------------------------------------------------
# work done per call
# ---------------------------------------------------------------------------


def _count_project_run(tmp_path, monkeypatch, projector, q=2):
    """Run ``project`` for sin4x, p = 3 and order q on 16 elements, counting the
    evaluator calls of u by (order, points), every basis sweep by its point
    counts, by whichever module makes it, and the residual fits of the Ritz
    correction.

    A sweep is one call of ``mesh._cox_de_boor``.  ``quadrature.grid_table``
    makes one for its grid and ``mesh._basis_table`` one for its points,
    each counted by their number; every sweep is checked to be the one of
    such a call."""
    from collections import Counter

    import ritzspline.analysis as analysis
    import ritzspline.cli as cli
    import ritzspline.eigenproblem as eigenproblem
    import ritzspline.mesh as mesh
    import ritzspline.projectors as projectors
    import ritzspline.quadrature as quadrature
    from ritzspline.functions import SmoothFunction, builtin

    base = builtin("sin4x")
    sweep, residual_fits = mesh._cox_de_boor, projectors._residual_fits
    u_calls, sweeps, corrections, swept = Counter(), Counter(), [], []

    def evaluator(x, d):
        u_calls[d, np.size(x)] += 1
        return base.evaluator(x, d)

    def counted_sweep(p, x, *args):
        swept.append(x.size)
        return sweep(p, x, *args)

    def counted(fn, sizes):
        def call(*args):
            made = len(swept)
            out = fn(*args)
            key = sizes(args, out)
            assert swept[made:] == [sum(key)]  # one sweep, of all the points
            sweeps[key] += 1
            return out

        return call

    grid_table = counted(quadrature.grid_table, lambda args, out: (out.points.size,))
    monkeypatch.setattr(
        mesh, "_basis_table",
        counted(mesh._basis_table, lambda args, out: (np.size(args[1]),)),
    )
    for module in (quadrature, projectors, analysis, eigenproblem):
        monkeypatch.setattr(module, "grid_table", grid_table)
    for module in (mesh, quadrature):
        monkeypatch.setattr(module, "_cox_de_boor", counted_sweep)

    def counted_fits(*args):
        corrections.append(args)
        return residual_fits(*args)

    monkeypatch.setattr(
        cli, "resolve_function", lambda name: SmoothFunction(evaluator, base.max_order, name)
    )
    monkeypatch.setattr(projectors, "_residual_fits", counted_fits)
    rc = run(
        [
            "project", "--function", "sin4x", "--p", "3", "--q", str(q), "--projector",
            projector, "--uniform", "15", "--format", "json", "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == 0
    assert len(swept) == sum(sweeps.values())  # no sweep outside the counted calls
    return u_calls, sweeps, corrections


def test_project_ritz_evaluates_the_report_grid_once(tmp_path, monkeypatch):
    """u^(l) once per order on the error-norm grid and one basis sweep there:
    the Ritz correction and the report read the same sample."""
    from ritzspline.mesh import Breakpoints
    from ritzspline.quadrature import default_order

    u_calls, sweeps, corrections = _count_project_run(tmp_path, monkeypatch, "ritz")
    n = 16 * default_order(3, Breakpoints.uniform(16))
    assert len(corrections) == 1
    assert {l: u_calls[l, n] for l in range(4)} == {0: 1, 1: 1, 2: 1, 3: 0}
    # the L2 step on the degree-1 derived space, one sweep for its load grid
    # and one for its Gram grid; the error grid; the two endpoints of the
    # boundary report
    n_load, n_gram = 16 * default_order(1, Breakpoints.uniform(16)), 16 * default_order(1)
    assert sweeps == {(n_load,): 1, (n_gram,): 1, (n,): 1, (2,): 1}


def test_project_l2_evaluates_the_report_grid_once(tmp_path, monkeypatch):
    """The L2 load grid is the error-norm grid: u^(0) is evaluated there
    once, for the load and the report together, and only the exact Gram
    grid is tabulated besides it."""
    from ritzspline.mesh import Breakpoints
    from ritzspline.quadrature import default_order

    u_calls, sweeps, corrections = _count_project_run(tmp_path, monkeypatch, "l2")
    n = 16 * default_order(3, Breakpoints.uniform(16))
    assert not corrections
    # besides the error grid, only u and u' at the two endpoints
    assert u_calls == {(0, n): 1, (1, n): 1, (2, n): 1, (0, 1): 2, (1, 1): 2}
    # the error grid; the exact Gram grid; the endpoints of the boundary report
    assert sweeps == {(n,): 1, (16 * default_order(3),): 1, (2,): 1}


@pytest.mark.parametrize("projector", ["q", "ritz", "qtilde"])
def test_project_at_q_zero_evaluates_the_report_grid_once(tmp_path, monkeypatch, projector):
    """At q = 0 every Ritz-type projector is the L2 projection, whose load
    grid is the error-norm grid: u^(0) is evaluated there once, and only the
    exact Gram grid and the two endpoints are tabulated besides it."""
    from ritzspline.mesh import Breakpoints
    from ritzspline.quadrature import default_order

    u_calls, sweeps, _ = _count_project_run(tmp_path, monkeypatch, projector, q=0)
    n = 16 * default_order(3, Breakpoints.uniform(16))
    assert u_calls == {(0, n): 1}
    assert sweeps == {(n,): 1, (16 * default_order(3),): 1, (2,): 1}


def test_scipy_is_imported_only_by_solves(tmp_path):
    """Import, constants, --help and exit-2 paths never load scipy; eig does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import json, sys
from ritzspline.cli import main
seen = {"import": "scipy" in sys.modules}
main(["constants", "--table", "d", "--p", "3"])
seen["constants"] = "scipy" in sys.modules
try:
    main(["--help"])
except SystemExit:
    pass
seen["help"] = "scipy" in sys.modules
rc = main(["project", "--function", "sin4x", "--p", "3", "--q", "9", "--out", "x"])
seen["exit_2"] = [rc, "scipy" in sys.modules]
rc = main(["eig", "--p", "3", "--elements", "8", "--out", "eig"])
seen["eig"] = [rc, "scipy" in sys.modules]
print(json.dumps(seen))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {
        "import": False, "constants": False, "help": False,
        "exit_2": [2, False], "eig": [0, True],
    }
