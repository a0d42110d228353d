#!/usr/bin/env python3
"""Numeric differences between the CLI artifacts of two checkouts.

Runs the `artifact_hashes.runs()` matrix once per checkout, each in its own
subprocess that imports that checkout's `src/`, and compares every artifact
and every run's stdout.  Numbers are compared as numbers, and each
difference is divided by the largest absolute value of its own column: a
CSV column, a JSON key (list indices dropped, so `boundary.residual` holds
the residual of every boundary row), or the whole file for SVG and stdout.
For each file that differs, one line names the difference with the largest
such ratio, its column and its absolute size:

    python3 scripts/artifact_diff.py /path/to/parent-checkout [NEW]

Rows that are roundoff noise by construction are listed apart, after the
others:

- every row of an rq-diff file `rq-diff-q<q>-*/rq-diff_p<p>_l<l>.csv` with
  l >= q (R - Q is a polynomial of degree q - 1) or p >= 3q - 1 (R = Q);
- every number of an rq-diff plot `rq-diff-q<q>-*/rq-diff.svg`, which
  draws those rows too (its other series are compared through their CSV
  files);
- the `moment` rows of a `ritz` run's `moments.csv` and `report.json`
  (the moment conditions make them zero);
- in a `ritz` run with p >= 3q - 1, where R = Q, the polynomial correction
  (all of `correction.csv` and the `correction` key of `report.json`) and
  the applicable boundary residuals (those rows of `boundary.csv` and of the
  `boundary` key of `report.json`: R interpolates u there as Q does).
  Every `project` run of the matrix has p = PROJECT_P = 4, so these are the
  q = 1 runs;
- in a `qtilde` run, where Q~u - Qu is a constant c fixed by (u - Q~u, 1) = 0,
  so that the error e = u - Q~u has every derivative of Q's: the `mean` row
  of order 0 and the `moment` row of index 0, both (e, 1) = 0; the boundary
  rows of order l >= 1 flagged applicable, where Q matches u^(l); and the
  `mean` rows of order l >= 1 flagged applicable, (e^(l), 1) =
  e^(l-1)(b) - e^(l-1)(a), where Q matches u^(l-1) at both ends (the flag's
  p >= 2q - l).  The boundary rows of order 0 stay regular: e(a) = -c.

NEW defaults to the checkout holding this script.  `artifact_hashes.py`
says whether two files differ at all; this says whether they agree to
roundoff.  Exits 1 when a file exists on one side only, when the text
around the numbers differs (a number turning into `nan` counts as text),
or when a run does not exit 0; numeric differences alone exit 0.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
# a decimal number not glued to a name, so `p4`, `err_l0` and `sin4x` stay text
NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
RUN = ("import sys; sys.path[:0] = sys.argv[1:3]; import artifact_hashes as h; "
       "sys.exit(h.write_runs(h.Path(sys.argv[3])))")


def write_artifacts(checkout: Path, dest: Path) -> bool:
    """Write the matrix's artifacts of one checkout under dest; True if every run exits 0."""
    cmd = [sys.executable, "-c", RUN, str(SCRIPTS), str(checkout.resolve() / "src"), str(dest)]
    return subprocess.run(cmd).returncode == 0


# rq-diff study file: run id holds q, file name holds p and l
RQ_FILE = re.compile(r"rq-diff-q(\d+)-[^/]*/rq-diff_p(\d+)_l(\d+)\.csv$")
RQ_PLOT = re.compile(r"rq-diff-q\d+-[^/]*/rq-diff\.svg$")
# a ritz projection's correction and boundary residuals: run id holds q
RITZ_FILE = re.compile(r"-ritz-q(\d+)-[^/]*/(correction\.csv|boundary\.csv|report\.json)$")
PROJECT_P = 4  # the degree of every `project` run in artifact_hashes.runs()


def _is_noise(path: str, row: dict, key: str = "") -> bool:
    """Whether a row of the file at path (for JSON, the value under key)
    is roundoff noise by construction."""
    rq = RQ_FILE.search(path)
    if rq:
        q, p, l = map(int, rq.groups())
        return l >= q or p >= 3 * q - 1
    if RQ_PLOT.search(path):
        return True
    ritz = RITZ_FILE.search(path)
    if ritz and PROJECT_P >= 3 * int(ritz.group(1)) - 1:  # R = Q
        name = ritz.group(2)
        if name == "correction.csv" or key == "correction":
            return True
        if (name == "boundary.csv" and row.get("applicable") == "1") or (
            key.startswith("boundary.") and row.get("applicable") is True
        ):
            return True
    if "-qtilde-" in path:
        flagged = row.get("applicable") in ("1", True)
        if "kind" in row:  # a moments row
            return int(row["index"]) == 0 or (row["kind"] == "mean" and flagged)
        return "endpoint" in row and int(row["l"]) >= 1 and flagged
    return "-ritz-" in path and row.get("kind") == "moment"


def _json_cells(path: str, node, key: str = "", row: dict | None = None):
    if isinstance(node, dict):
        for name, value in node.items():
            yield from _json_cells(path, value, f"{key}.{name}" if key else name, node)
    elif isinstance(node, list):
        for value in node:
            yield from _json_cells(path, value, key, row)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield key, float(node), _is_noise(path, row or {}, key)


def cells(path: str, text: str) -> list[tuple[str, float, bool]]:
    """(column, value, noise) for every number of a file, in file order."""
    if path.endswith(".json"):
        return list(_json_cells(path, json.loads(text)))
    if not path.endswith(".csv"):
        noise = _is_noise(path, {})
        return [("(whole file)", float(v), noise) for v in NUMBER.findall(text)]
    header, *lines = text.splitlines()
    names = header.split(",")
    out = []
    for line in lines:
        row = dict(zip(names, line.split(",")))
        noise = _is_noise(path, row)
        out += [(name, float(v), noise) for name, v in row.items() if NUMBER.fullmatch(v)]
    return out


def _worst(path: str, old_cells, new_cells) -> dict[bool, str]:
    """Per class (noise or not), the difference with the largest ratio to
    its column's largest absolute value, as report text."""
    top: dict[str, float] = {}
    for (name, x, _), (_, y, _) in zip(old_cells, new_cells):
        top[name] = max(top.get(name, 0.0), abs(x), abs(y))
    worst: dict[bool, tuple[float, float, str]] = {}
    for (name, x, noise), (_, y, _) in zip(old_cells, new_cells):
        if not (x == y or (x != x and y != y)):  # equal, or nan on both sides
            diff = abs(x - y)
            here = (diff / top[name], diff, name)
            worst[noise] = max(worst.get(noise, here), here)
    return {
        noise: f"{path}  rel_to_column_max={rel:.3e}  column={name}  abs_diff={diff:.3e}"
        for noise, (rel, diff, name) in worst.items()
    }


def _noise_only(path: str, a: str, b: str) -> bool:
    """Whether every line that differs between two texts is a noise row."""
    if _is_noise(path, {}):  # the whole file is noise
        return True
    la, lb = a.splitlines(), b.splitlines()
    if not path.endswith(".csv") or len(la) != len(lb) or la[0] != lb[0]:
        return False
    names = la[0].split(",")
    return all(
        _is_noise(path, dict(zip(names, x.split(","))))
        for x, y in zip(la[1:], lb[1:]) if x != y
    )


def compare(old: Path, new: Path) -> int:
    """Print one line per differing file, then the known noise rows apart;
    1 on a missing file or a text difference."""
    files = {
        side: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
        for side, root in (("old", old), ("new", new))
    }
    status = 0
    for path in sorted(files["old"] ^ files["new"]):
        print(f"{path}: only in {'old' if path in files['old'] else 'new'}")
        status = 1
    differing = 0
    noise_lines = []
    for path in sorted(files["old"] & files["new"]):
        a, b = (old / path).read_text(), (new / path).read_text()
        if a == b:
            continue
        differing += 1
        if NUMBER.split(a) != NUMBER.split(b):
            if _noise_only(path, a, b):
                noise_lines.append(f"{path}: text differs")
            else:
                print(f"{path}: text differs")
            status = 1
            continue
        worst = _worst(path, cells(path, a), cells(path, b))
        if False in worst:
            print(worst[False])
        if True in worst:
            noise_lines.append(worst[True])
        if not worst:
            print(f"{path}: numbers equal, formatting differs")
    if noise_lines:
        print("known noise rows:")
        print("\n".join(noise_lines))
    common = len(files["old"] & files["new"])
    print(f"{differing} of {common} common files differ", file=sys.stderr)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", nargs="?", type=Path, default=SCRIPTS.parent,
                        help="checkout to compare (default: the one holding this script)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp, "old"), Path(tmp, "new")
        ok = True
        for checkout, root in zip((args.old, args.new), roots):
            root.mkdir()
            ok = write_artifacts(checkout, root) and ok
        status = compare(*roots)
    return 1 if status or not ok else 0


if __name__ == "__main__":
    sys.exit(main())
