import argparse
import importlib.util
from pathlib import Path

import numpy
import pytest
import scipy

from ritzspline.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_diff = _load(SCRIPT)
artifact_hashes = _load(SCRIPT.with_name("artifact_hashes.py"))


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_numeric_differences_are_reported_not_failed(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"run/err_p8_l0.csv": "h,err_l0\n0.5,2.0e-3\n0.25,1e-4\n",
                                   "run/stdout": "run/err_p8_l0.csv\n"})
    new = _tree(tmp_path / "new", {"run/err_p8_l0.csv": "h,err_l0\n0.5,2.5e-3\n0.25,1e-4\n",
                                   "run/stdout": "run/err_p8_l0.csv\n"})
    assert artifact_diff.compare(old, new) == 0
    line = capsys.readouterr().out.strip()
    # 5e-4 absolute, over the largest number of its own column, 2.5e-3
    assert line == ("run/err_p8_l0.csv  rel_to_column_max=2.000e-01  column=err_l0"
                    "  abs_diff=5.000e-04")


def test_index_column_does_not_dilute_the_difference(tmp_path, capsys):
    """An index of 1001 once divided a residual difference of 5e-4 to 5e-7."""
    old = _tree(tmp_path / "old", {"b.csv": "index,residual\n1000,1.0e-3\n1001,2.0e-3\n",
                                   "r.json": '{"index": 1001, "errors": {"l0": 2.0e-3}}\n'})
    new = _tree(tmp_path / "new", {"b.csv": "index,residual\n1000,1.5e-3\n1001,2.0e-3\n",
                                   "r.json": '{"index": 1001, "errors": {"l0": 1.5e-3}}\n'})
    assert artifact_diff.compare(old, new) == 0
    assert capsys.readouterr().out.splitlines() == [
        "b.csv  rel_to_column_max=2.500e-01  column=residual  abs_diff=5.000e-04",
        "r.json  rel_to_column_max=2.500e-01  column=errors.l0  abs_diff=5.000e-04",
    ]


def test_known_noise_rows_are_listed_apart(tmp_path, capsys):
    rq = "converge/rq-diff-q2-g1/rq-diff_p{}_l{}.csv"
    moments = "kind,index,residual,scaled,applicable\nmean,0,{},1e-3,1\nmoment,1,{},1e-3,1\n"
    report = ('{{"moments": [{{"kind": "mean", "residual": {}}}, '
              '{{"kind": "moment", "residual": {}}}]}}')
    ritz = '{{"p": 4, "coefficients": [{}, 1.0], "correction": [{}, 2e-21]}}'
    correction = "power,coefficient\n0,{}\n1,2e-21\n"
    boundary = "endpoint,l,residual,scaled,applicable\na,0,{0},{0},1\nb,0,{1},{1},{2}\n"
    ritz_boundary = '{{"boundary": [{{"endpoint": "b", "l": 0, "residual": {}, "applicable": true}}]}}'
    svg = '<svg><path d="M 10 {} L 20 30"/></svg>\n'
    old = _tree(tmp_path / "old", {
        rq.format(2, 1): "h,err_l1\n0.5,1e-3\n", rq.format(2, 2): "h,err_l2\n0.5,1e-15\n",
        rq.format(5, 0): "h,err_l0\n0.5,1e-16\n", rq.format(3, 2): "h,err_l2\n0.5,1e-15\n",
        "converge/rq-diff-q2-g1/rq-diff.svg": svg.format("40.5"),
        "converge/error-q-g1/error.svg": svg.format("40.5"),
        "project/u-ritz-q2-csv/moments.csv": moments.format("1e-3", "1e-15"),
        "project/u-ritz-q2-json/report.json": report.format("1e-3", "1e-15"),
        "project/u-q-q2-csv/moments.csv": moments.format("1e-3", "1e-15"),
        "project/u-ritz-q1-csv/correction.csv": correction.format("1e-21"),
        "project/u-ritz-q1-json/report.json": ritz.format("0.5", "1e-21"),
        "project/u-ritz-q2-csv/correction.csv": correction.format("1e-3"),
        "project/u-ritz-q1-csv/boundary.csv": boundary.format("1e-21", "0.5", 0),
        "project/u-ritz-q2-csv/boundary.csv": boundary.format("1e-3", "1e-3", 1),
        "project/v-ritz-q1-json/report.json": ritz_boundary.format("1e-21"),
    })
    new = _tree(tmp_path / "new", {
        rq.format(2, 1): "h,err_l1\n0.5,2e-3\n", rq.format(2, 2): "h,err_l2\n0.5,2e-15\n",
        rq.format(5, 0): "h,err_l0\n0.5,2e-16\n", rq.format(3, 2): "h,err_l2\n0.5,nan\n",
        "converge/rq-diff-q2-g1/rq-diff.svg": svg.format("40.75"),
        "converge/error-q-g1/error.svg": svg.format("40.75"),
        "project/u-ritz-q2-csv/moments.csv": moments.format("2e-3", "2e-15"),
        "project/u-ritz-q2-json/report.json": report.format("1e-3", "2e-15"),
        "project/u-q-q2-csv/moments.csv": moments.format("1e-3", "2e-15"),
        "project/u-ritz-q1-csv/correction.csv": correction.format("1.5e-21"),
        "project/u-ritz-q1-json/report.json": ritz.format("0.75", "1.5e-21"),
        "project/u-ritz-q2-csv/correction.csv": correction.format("2e-3"),
        "project/u-ritz-q1-csv/boundary.csv": boundary.format("3e-21", "0.25", 0),
        "project/u-ritz-q2-csv/boundary.csv": boundary.format("2e-3", "1e-3", 1),
        "project/v-ritz-q1-json/report.json": ritz_boundary.format("4e-21"),
    })
    assert artifact_diff.compare(old, new) == 1  # the nan is a text difference
    out = capsys.readouterr().out.splitlines()
    split = out.index("known noise rows:")
    regular, noise = out[:split], out[split + 1 :]
    assert [line.split()[0] for line in regular] == [
        "converge/error-q-g1/error.svg",  # plots of other studies are not noise
        "converge/rq-diff-q2-g1/rq-diff_p2_l1.csv",
        "project/u-q-q2-csv/moments.csv",  # moment rows of other projectors are not noise
        "project/u-ritz-q1-csv/boundary.csv",  # a row flagged not applicable is not noise
        "project/u-ritz-q1-json/report.json",  # its coefficients are not noise
        "project/u-ritz-q2-csv/boundary.csv",  # R != Q at p = 4, q = 2
        "project/u-ritz-q2-csv/correction.csv",
        "project/u-ritz-q2-csv/moments.csv",
    ]
    assert "abs_diff=2.500e-01" in regular[3]
    assert "column=coefficients  abs_diff=2.500e-01" in regular[4]
    assert "abs_diff=1.000e-03" in regular[5]
    assert "column=residual  abs_diff=1.000e-03" in regular[7]
    assert [line.split()[0] for line in noise] == [
        "converge/rq-diff-q2-g1/rq-diff.svg",
        "converge/rq-diff-q2-g1/rq-diff_p2_l2.csv",
        "converge/rq-diff-q2-g1/rq-diff_p3_l2.csv:",
        "converge/rq-diff-q2-g1/rq-diff_p5_l0.csv",
        "project/u-ritz-q1-csv/boundary.csv",  # applicable rows at p >= 3q - 1
        "project/u-ritz-q1-csv/correction.csv",
        "project/u-ritz-q1-json/report.json",
        "project/u-ritz-q2-csv/moments.csv",
        "project/u-ritz-q2-json/report.json",
        "project/v-ritz-q1-json/report.json",
    ]
    assert noise[2].endswith("text differs")
    assert "abs_diff=2.000e-21" in noise[4]
    assert "column=coefficient  abs_diff=5.000e-22" in noise[5]
    assert "column=correction  abs_diff=5.000e-22" in noise[6]
    assert "column=moments.residual  abs_diff=1.000e-15" in noise[8]
    assert "column=boundary.residual  abs_diff=3.000e-21" in noise[9]


QTILDE_BOUNDARY = "endpoint,l,residual,scaled,applicable\na,0,{},{},1\nb,0,{},{},1\na,1,{},{},1\nb,1,{},{},1\n"
QTILDE_MOMENTS = "kind,index,residual,scaled,applicable\nmean,0,{},{},1\nmean,1,{},{},1\nmoment,0,{},{},1\n"


def test_qtilde_rows_that_vanish_by_construction_are_noise(tmp_path, capsys):
    """Two files that moved by roundoff alone when parsed expressions went to
    Taylor arithmetic (p = 4 on the nonuniform mesh): the order-1 boundary
    residual at b, 0 -> 1.8e-15 at q = 2, and the moment residuals at q = 1,
    up to 3.0e-16.  The order-0 boundary rows stay regular: there Q~u differs
    from u by the constant that fixes its mean, 5.9e-4 for sin4x at p = 3,
    q = 2 on 4 elements."""
    def pairs(*values):
        return [v for value in values for v in (value, value)]

    old = _tree(tmp_path / "old", {
        "project/expr-nonuniform-qtilde-q2-csv/boundary.csv": QTILDE_BOUNDARY.format(
            *pairs("3.6478670341332556e-16", "1.1102230246251565e-16",
                   "4.4408920985006262e-16", "0")),
        "project/expr-nonuniform-qtilde-q1-csv/moments.csv": QTILDE_MOMENTS.format(
            *pairs("1.9742643934603232e-17", "1.4055325913558958e-16",
                   "1.9742643934603232e-17")),
        "project/sin4x-qtilde-q2-json/report.json":
            '{"boundary": [{"endpoint": "a", "l": 0, "residual": 0.00058820343804047957, '
            '"applicable": true}, {"endpoint": "b", "l": 1, "residual": 0, "applicable": true}]}',
    })
    new = _tree(tmp_path / "new", {
        "project/expr-nonuniform-qtilde-q2-csv/boundary.csv": QTILDE_BOUNDARY.format(
            *pairs("4.7588259939362469e-16", "4.4408920985006262e-16",
                   "4.4408920985006262e-16", "1.7763568394002505e-15")),
        "project/expr-nonuniform-qtilde-q1-csv/moments.csv": QTILDE_MOMENTS.format(
            *pairs("4.292106526150672e-17", "4.3738070890780856e-16",
                   "4.292106526150672e-17")),
        "project/sin4x-qtilde-q2-json/report.json":
            '{"boundary": [{"endpoint": "a", "l": 0, "residual": 0.00059, '
            '"applicable": true}, {"endpoint": "b", "l": 1, "residual": 4.4e-16, "applicable": true}]}',
    })
    assert artifact_diff.compare(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    split = out.index("known noise rows:")
    regular, noise = out[:split], out[split + 1 :]
    assert [line.split()[0] for line in regular] == [
        "project/expr-nonuniform-qtilde-q2-csv/boundary.csv",  # its order-0 rows
        "project/sin4x-qtilde-q2-json/report.json",
    ]
    assert "abs_diff=3.331e-16" in regular[0]
    assert "column=boundary.residual  abs_diff=1.797e-06" in regular[1]
    assert [line.split()[0] for line in noise] == [
        "project/expr-nonuniform-qtilde-q1-csv/moments.csv",
        "project/expr-nonuniform-qtilde-q2-csv/boundary.csv",
        "project/sin4x-qtilde-q2-json/report.json",
    ]
    assert "abs_diff=2.968e-16" in noise[0]
    assert "rel_to_column_max=1.000e+00" in noise[1] and "abs_diff=1.776e-15" in noise[1]
    assert "abs_diff=4.400e-16" in noise[2]


def test_project_degree_matches_the_hash_matrix():
    """The correction noise rows rest on the degree of the matrix's project runs."""
    degrees = {argv[argv.index("--p") + 1] for run_id, argv in artifact_hashes.runs()
               if run_id.startswith("project/")}
    assert degrees == {str(artifact_diff.PROJECT_P)}


def test_hash_matrix_runs_every_subcommand():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for _, argv in artifact_hashes.runs()} == set(sub.choices)


@pytest.mark.parametrize("old_files,new_files,message", [
    ({"a.csv": "x,1\n"}, {"a.csv": "y,1\n"}, "a.csv: text differs"),
    ({"a.csv": "x,1\n"}, {"a.csv": "x,nan\n"}, "a.csv: text differs"),
    ({"a.csv": "p4,1\n"}, {"a.csv": "p5,1\n"}, "a.csv: text differs"),
    ({"a.csv": "1\n", "b.csv": "2\n"}, {"a.csv": "1\n"}, "b.csv: only in old"),
])
def test_text_differences_and_missing_files_fail(tmp_path, capsys, old_files, new_files, message):
    old = _tree(tmp_path / "old", old_files)
    new = _tree(tmp_path / "new", new_files)
    assert artifact_diff.compare(old, new) == 1
    assert message in capsys.readouterr().out


def test_hash_run_names_its_blas_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(artifact_hashes.os, "cpu_count", lambda: 6)
    assert artifact_hashes.thread_settings() == (
        "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=(unset) cpu_count=6"
    )
    monkeypatch.setattr(numpy, "__version__", "1.2.3")
    monkeypatch.setattr(scipy, "__version__", "4.5.6")
    assert artifact_hashes.library_versions() == "numpy=1.2.3 scipy=4.5.6"
