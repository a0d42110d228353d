"""Span tracing of ritzspline's layers from outside the package.

``Tracer.install`` wraps the public functions of each module in every
namespace where callers look them up (``eval_spline_many`` is imported by
name into ``analysis`` and ``projectors``, ``gram_matrix`` into
``projectors`` and ``eigenproblem``, ``q_project`` also sits in the
projector table of ``analysis``), plus a few methods on their classes.
Nothing under ``src/`` changes, and ``uninstall`` restores every binding.
Spans are kept in memory as (name, start, end, parent) and written out
once at the end.

The per-point kernels ``eval_spline``, ``eval_basis`` and ``_basis_derivs``
are deliberately not wrapped: they run tens of thousands of times per
study, so tracing them would swamp what it measures.  Their cost shows as
self time of the array-level callers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = "op"  # root span around one benchmark operation, named "op:<operation>"


def _size(a) -> int:
    return int(getattr(a, "size", 1))


@dataclass(frozen=True)
class Hook:
    """Functions to wrap, with the span and the counter they feed.

    A target is (module, attribute) or (module, class, method) inside the
    ritzspline package.  ``span=None`` makes a counter-only hook.  In
    ``counter``, ``{span}`` stands for the innermost open span, so a count
    taken in a shared helper lands on the layer that called it.
    """

    targets: tuple[tuple[str, ...], ...]
    span: str | None = None
    counter: str | None = None
    count: Callable[[tuple, object], int] | None = None


HOOKS = (
    Hook((("functions", "SmoothFunction", "eval"),), "functions.eval",
         "functions.eval_points", lambda args, out: _size(args[1])),
    Hook((("functions", "resolve_function"),), "functions.build"),
    Hook((("mesh", "eval_spline_many"),), "mesh.eval_spline_many",
         "mesh.eval_points", lambda args, out: _size(args[1])),
    Hook((("mesh", "poly_to_spline"),), "mesh.poly_to_spline"),
    Hook((("quadrature", "gram_matrix"),), "quadrature.gram_matrix"),
    Hook((("quadrature", "load_vector"),), "quadrature.load_vector"),
    Hook((("quadrature", "BandedSymmetric", "solve_spd"),), "quadrature.solve_spd"),
    Hook((("projectors", "ritz_correction"),), "projectors.ritz_correction"),
    Hook((("projectors", "dense_solve"),), "projectors.kkt_solve",
         "projectors.kkt_dim", lambda args, out: int(args[0].shape[0])),
    Hook((("analysis", "error_norm"),), "analysis.error_norm"),
    Hook((("analysis", "moment_report"),), "analysis.moment_report"),
    Hook((("analysis", "boundary_report"),), "analysis.boundary_report"),
    Hook((("eigenproblem", "eigh"),), "eigenproblem.eigh"),
    Hook((("eigenproblem", "solve_biharmonic"),), "eigenproblem.solve"),
    Hook((("eigenproblem", "clamped_beam_eigenvalues"),), "eigenproblem.beam_roots"),
    Hook((("cli", "_write"),), "cli.render",
         "cli.artifact_bytes", lambda args, out: len(args[1].encode())),
    Hook((("svgplot", "loglog_plot"), ("svgplot", "spectrum_plot"),
          ("eigenproblem", "SpectrumReport", "to_csv"),
          ("eigenproblem", "SpectrumReport", "to_json"),
          ("analysis", "ConvergenceTable", "to_csv"),
          ("analysis", "ConvergenceTable", "to_json")), "cli.render"),
    # counters only
    Hook((("projectors", "q_project"),), None,
         "projectors.q_project_calls", lambda args, out: 1),
    Hook((("quadrature", "mesh_points"),), None,
         "{span}.points", lambda args, out: _size(out[0])),
    Hook((("quadrature", "BandedSymmetric", "to_dense"),), None,
         "{span}.dense_bytes", lambda args, out: int(out.nbytes)),
)


class Tracer:
    """Records spans and counts while ``active``; a no-op pass-through otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        # host speed factor of each root span; self times are divided by it
        self.speeds: dict[int, float] = {}
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _timed(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append((idx, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent)
            self._stack.pop()

    def op(self, name: str, fn, *args) -> tuple[int, object]:
        """Call fn(*args) inside a root span; returns (span index, result)."""
        idx = len(self.spans)
        return idx, self._timed(f"{ROOT}:{name}", fn, args, {})

    def _wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            caller = tracer._stack[-1][1] if tracer._stack else ROOT
            if hook.span is None:
                out = fn(*args, **kwargs)
            else:
                out = tracer._timed(hook.span, fn, args, kwargs)
            if hook.counter is not None:
                tracer.counts[hook.counter.format(span=caller)] += hook.count(args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ritzspline" or name.startswith("ritzspline.")]
        for hook in HOOKS:
            for target in hook.targets:
                home = sys.modules[f"ritzspline.{target[0]}"]
                if len(target) == 3:
                    cls = getattr(home, target[1])
                    original = cls.__dict__[target[2]]
                    setattr(cls, target[2], self._wrap(original, hook))
                    self._undo.append((cls, target[2], original))
                    continue
                original = getattr(home, target[1])
                wrapped = self._wrap(original, hook)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
                            self._undo.append((module, name, original))
                        elif isinstance(value, dict) and not name.startswith("__"):
                            for key, entry in list(value.items()):
                                if entry is original:
                                    value[key] = wrapped
                                    self._undo.append((value, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage,
        divided by the speed factor of the span's root."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        root: list[int] = []
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
            root.append(idx if parent is None else root[parent])
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted(children.get(idx, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            totals[name] += ((end - start) - covered) / self.speeds.get(root[idx], 1.0)
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
