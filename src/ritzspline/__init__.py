"""Spline approximation with boundary-interpolating Ritz-type projectors,
explicit error constants, and a spectral outlier lab."""

from .mesh import (
    Breakpoints,
    Spline,
    SplineSpace,
    derive,
    embed,
    eval_basis,
    eval_spline,
    eval_spline_many,
    integrate_from_left,
    make_space,
    poly_to_spline,
    spline_to_poly,
)
from .quadrature import GaussRule, gauss_rule, gram_matrix, inner_product, load_vector
from .functions import (
    SmoothFunction,
    builtin,
    from_expression,
    parse,
    resolve_function,
)
from .projectors import (
    l2_project,
    poly_l2_project,
    q_project,
    qtilde_project,
    ritz_correction,
    ritz_project,
)
from .bounds import (
    BoundQuery,
    broken_error_coefficient,
    difference_coefficient,
    error_coefficient,
    inverse_constant,
    projection_constant,
    projection_constant_upper,
    schultz_constant,
    schultz_log_gap,
)
from .analysis import (
    ConvergenceTable,
    boundary_report,
    convergence_study,
    error_norm,
    function_seminorm,
    moment_report,
    rq_difference_study,
    spline_norm,
)
from .eigenproblem import (
    SpectrumReport,
    clamped_beam_eigenvalues,
    constrained_space,
    predict_non_outliers,
    solve_biharmonic,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
