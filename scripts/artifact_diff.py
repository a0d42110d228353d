#!/usr/bin/env python3
"""Numeric differences between the CLI artifacts of two checkouts.

Runs the `artifact_hashes.runs()` matrix once per checkout, each in its own
subprocess that imports that checkout's `src/`, and compares every artifact
and every run's stdout.  Numbers are compared as numbers.  For each file
that differs, one line gives its path, the largest absolute difference
between corresponding numbers, and that difference divided by the largest
absolute number in the file:

    python3 scripts/artifact_diff.py /path/to/parent-checkout [NEW]

NEW defaults to the checkout holding this script.  `artifact_hashes.py`
says whether two files differ at all; this says whether they agree to
roundoff.  Exits 1 when a file exists on one side only, when the text
around the numbers differs (a number turning into `nan` counts as text),
or when a run does not exit 0; numeric differences alone exit 0.
"""

import argparse
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


def compare(old: Path, new: Path) -> int:
    """Print one line per differing file; 1 on a missing file or a text difference."""
    files = {
        side: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
        for side, root in (("old", old), ("new", new))
    }
    status = 0
    for path in sorted(files["old"] ^ files["new"]):
        print(f"{path}: only in {'old' if path in files['old'] else 'new'}")
        status = 1
    differing = 0
    for path in sorted(files["old"] & files["new"]):
        a, b = (old / path).read_text(), (new / path).read_text()
        if a == b:
            continue
        differing += 1
        if NUMBER.split(a) != NUMBER.split(b):
            print(f"{path}: text differs")
            status = 1
            continue
        xs = [float(v) for v in NUMBER.findall(a)]
        ys = [float(v) for v in NUMBER.findall(b)]
        diff = max(abs(x - y) for x, y in zip(xs, ys))
        top = max(max(abs(x), abs(y)) for x, y in zip(xs, ys))
        print(f"{path}  max_abs_diff={diff:.3e}  rel_to_file_max={diff / top:.3e}")
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
