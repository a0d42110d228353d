#!/usr/bin/env python3
"""List the statements of `src/ritzspline` that no test executes.

Runs pytest in this process under `sys.settrace`, tracing only frames whose
code lives in `src/ritzspline`, and prints one `path:line  statement` line
for every statement (docstrings excluded) that raised no line event.  A
statement spanning several lines counts as executed if any of its own
lines did; a compound statement owns the lines of its header only.  Extra
arguments go to pytest, whose own output goes to stderr:

    python3 scripts/unexecuted.py                      # the whole suite
    python3 scripts/unexecuted.py tests/test_mesh.py -q

Run it from the repository root.  Code run in a subprocess (the CLI tests
that start `python -m ritzspline.cli`) is not seen.  Standard library only;
the suite takes a few times longer than untraced.  Exits with pytest's
status.
"""

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ritzspline"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _blocks(node: ast.AST) -> list[ast.AST]:
    """The nodes of `node`'s statement blocks (bodies, handlers, cases)."""
    out = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        block = getattr(node, field, None)
        if isinstance(block, list):
            out.extend(block)
    return out


def statements(path: Path) -> dict[int, range]:
    """First line of each statement of `path` -> the lines it owns."""
    owned = {}
    for parent in ast.walk(ast.parse(path.read_text(), str(path))):
        for node in _blocks(parent):
            if (
                not isinstance(node, ast.stmt)
                or isinstance(node, (ast.Global, ast.Nonlocal))
                or _is_docstring(node, parent)
            ):
                continue
            # a decorated definition owns its decorator lines too
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = [getattr(n, "pattern", n).lineno for n in _blocks(node)]
            last = min(inner) - 1 if inner else node.end_lineno
            owned[node.lineno] = range(first, max(last, node.lineno) + 1)
    return owned


def main(argv: list[str]) -> int:
    import pytest

    root = str(PACKAGE) + os.sep
    inside: dict[str, bool] = {}
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(root)
        if not inside[name]:
            return None
        hit.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = int(pytest.main(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines_by_file: dict[str, set[int]] = {}
    for name, lines in hit.items():
        lines_by_file.setdefault(os.path.realpath(name), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        seen = lines_by_file.get(str(path), set())
        source = path.read_text().splitlines()
        for lineno, own in sorted(statements(path).items()):
            if seen.isdisjoint(own):
                print(f"{path.relative_to(ROOT)}:{lineno}  {source[lineno - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
