"""The names the package exports, pinned: adding or removing an export is a
deliberate edit of this list."""

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


def test_exports_are_pinned():
    assert EXPORTS == sorted(EXPORTS)
    assert ritzspline.__all__ == EXPORTS
