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


def test_array_holding_types_compare_by_identity():
    """The frozen dataclasses that store an array compare and hash by
    identity: ``==`` gives a bool and ``hash`` works, where a field-wise
    comparison of arrays would raise.  A spline space compares by its three
    fields, so two spaces over one mesh are equal."""
    from ritzspline import quadrature

    xi = ritzspline.Breakpoints.uniform(4)
    space = ritzspline.make_space(3, 2, xi)
    rule = quadrature.gauss_rule(4)
    makers = {
        "Breakpoints": lambda: ritzspline.Breakpoints.uniform(4),
        "Spline": lambda: ritzspline.Spline(space, [0.0] * space.dim),
        "GaussRule": lambda: quadrature.GaussRule(rule.nodes, rule.weights),
        "SpectrumReport": lambda: ritzspline.solve_biharmonic(3, xi),
        "quadrature.BandedSymmetric": lambda: quadrature.gram_matrix(space),
        "quadrature.GridTable": lambda: quadrature.grid_table([space], [4], (0,)),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert (a == a, a == b) == (True, False), name
        assert hash(a) == hash(a), name
    assert ritzspline.make_space(3, 2, xi) == ritzspline.make_space(3, 2, xi)
    assert hash(ritzspline.make_space(3, 2, xi)) == hash(space)
