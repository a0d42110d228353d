"""The benchmark's trace hooks name functions of the package by module and
attribute; a rename would otherwise surface only as a crash of a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    """Import perfbench/tracing.py by path without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    importlib.import_module("ritzspline.cli")  # what the benchmark imports
    targets = [target for hook in tracing.HOOKS for target in hook.targets]
    assert targets
    missing = []
    for target in targets:
        home = sys.modules.get(f"ritzspline.{target[0]}")
        if len(target) == 2:  # (module, attribute), looked up with getattr
            found = home is not None and callable(getattr(home, target[1], None))
        else:  # (module, class, method), looked up in the class's own __dict__
            cls = getattr(home, target[1], None)
            found = cls is not None and callable(vars(cls).get(target[2]))
        if not found:
            missing.append(".".join(target))
    assert missing == []
