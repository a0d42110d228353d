"""The names the package exports, and the stored fields of its exported
dataclasses, pinned: adding or removing an export or a field is a
deliberate edit of these lists."""

import dataclasses

import ritzspline

EXPORTS = [
    "BoundQuery",
    "Breakpoints",
    "ConvergenceTable",
    "GaussRule",
    "SmoothFunction",
    "SpectrumReport",
    "Spline",
    "SplineSpace",
    "analysis",
    "boundary_report",
    "bounds",
    "broken_error_coefficient",
    "builtin",
    "clamped_beam_eigenvalues",
    "constrained_space",
    "convergence_study",
    "derive",
    "difference_coefficient",
    "eigenproblem",
    "embed",
    "error_coefficient",
    "error_norm",
    "eval_spline_many",
    "from_expression",
    "function_seminorm",
    "functions",
    "gauss_rule",
    "gram_matrix",
    "integrate_from_left",
    "inverse_constant",
    "l2_project",
    "load_vector",
    "make_space",
    "mesh",
    "moment_report",
    "parse",
    "poly_l2_project",
    "poly_to_spline",
    "projection_constant",
    "projection_constant_upper",
    "projectors",
    "q_project",
    "qtilde_project",
    "quadrature",
    "resolve_function",
    "ritz_correction",
    "ritz_project",
    "rq_difference_study",
    "schultz_constant",
    "schultz_log_gap",
    "solve_biharmonic",
]


# Only the defining inputs are stored; what follows from them (a space's
# knots and dimension, a band matrix's size, a spectrum's mode count and
# references) is derived.
FIELDS = {
    "BoundQuery": ["p", "k", "q", "l", "r", "h", "h_min", "length"],
    "Breakpoints": ["points"],
    "ConvergenceTable": ["meta", "hs", "errors", "zero_flags"],
    "GaussRule": ["nodes", "weights"],
    "SmoothFunction": ["evaluator", "max_order", "description"],
    "SpectrumReport": ["p", "h", "threshold", "lambdas", "backward_error"],
    "Spline": ["space", "coeffs"],
    "SplineSpace": ["degree", "smoothness", "breakpoints"],
    "quadrature.BandedSymmetric": ["bands"],
}


def test_exports_are_pinned():
    assert EXPORTS == sorted(EXPORTS)
    assert ritzspline.__all__ == EXPORTS


def test_stored_fields_are_pinned():
    classes = {name: getattr(ritzspline, name) for name in EXPORTS}
    classes = {name: cls for name, cls in classes.items()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    classes["quadrature.BandedSymmetric"] = ritzspline.quadrature.BandedSymmetric
    assert {name: [f.name for f in dataclasses.fields(cls)]
            for name, cls in classes.items()} == FIELDS
