import json

import numpy as np
import pytest

from ritzspline.cli import main


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


def test_internal_failure_is_exit_1(tmp_path, monkeypatch, capsys):
    import ritzspline.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic breakage")

    monkeypatch.setattr(cli.eigenproblem, "outlier_report", boom)
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


def test_quad_order_env_below_exact_order_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RITZ_SPLINE_QUAD_ORDER", "1")
    rc = run(
        [
            "project", "--function", "sin(4*x)", "--p", "3", "--uniform", "3",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "RITZ_SPLINE_QUAD_ORDER must lie in [4, 64]: got 1" in err


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
