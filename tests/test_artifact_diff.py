import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


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
    assert line.startswith("run/err_p8_l0.csv ")
    # 5e-4 absolute, over the file's largest number 0.5
    assert "max_abs_diff=5.000e-04" in line and "rel_to_file_max=1.000e-03" in line


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
