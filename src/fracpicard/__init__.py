"""Solver for implicit fractional initial-value problems.

Solves ``D^alpha x(t) = f(t, x(t), D^alpha x(t))``, ``x(0) = x0``, with
the Caputo derivative of order ``alpha`` in ``(0, 1)``, by Picard
iteration on the equivalent fixed-point equation for the derivative,
with convergence controlled in a Mittag-Leffler-weighted norm.  Ships
a priori contraction certificates, a posteriori error bounds, distance
bounds between perturbed problems, anchored solution families with
Hausdorff comparison, a formula parser, and a CLI (``fracpicard``).
"""

from .dependence import (
    AnchorCheck,
    ProblemPair,
    SolutionFamily,
    check_anchor_condition,
    dependence_bound,
    estimate_eta_sup,
    estimate_ml_gap,
    family_hausdorff_bound,
    hausdorff_distance,
    measured_distance,
    solve_family,
)
from .errors import (
    AnchorConditionError,
    ConfigError,
    ContractionError,
    DomainError,
    EvalError,
    ExpressionError,
    FracpicardError,
    GridMismatchError,
    IterationError,
    ParseError,
    RhsEvaluationError,
    SeriesConvergenceError,
)
from .fixtures import (
    Fixture,
    builtin_fixtures,
    comparison_problem,
    get_fixture,
    linear_problem,
    reference_problem,
    shifted_reference_problem,
    validate_exact,
)
from .fracops import FracWeights, build_weights, caputo_l1, frac_integral
from .grid import GridFunction, UniformGrid
from .config import RunConfig, load_config, parse_config
from .rhsdsl import (
    Expr,
    as_rhs,
    evaluate,
    parse,
    to_source,
)
from .solver import (
    ContractionReport,
    ProblemSpec,
    Residuals,
    SolveReport,
    SolverConfig,
    bielecki_norm,
    check_contraction,
    picard_step,
    pointwise,
    reconstruct_x,
    residual_caputo,
    resolve_theta,
    solve,
)
from .specfun import mittag_leffler

__version__ = "0.1.0"

__all__ = [
    "AnchorCheck",
    "AnchorConditionError",
    "ConfigError",
    "ContractionError",
    "ContractionReport",
    "DomainError",
    "EvalError",
    "Expr",
    "ExpressionError",
    "Fixture",
    "FracWeights",
    "FracpicardError",
    "GridFunction",
    "GridMismatchError",
    "IterationError",
    "ParseError",
    "ProblemPair",
    "ProblemSpec",
    "Residuals",
    "RhsEvaluationError",
    "RunConfig",
    "SeriesConvergenceError",
    "SolutionFamily",
    "SolveReport",
    "SolverConfig",
    "UniformGrid",
    "as_rhs",
    "bielecki_norm",
    "build_weights",
    "builtin_fixtures",
    "caputo_l1",
    "check_anchor_condition",
    "check_contraction",
    "comparison_problem",
    "dependence_bound",
    "estimate_eta_sup",
    "estimate_ml_gap",
    "evaluate",
    "family_hausdorff_bound",
    "frac_integral",
    "get_fixture",
    "hausdorff_distance",
    "linear_problem",
    "load_config",
    "measured_distance",
    "mittag_leffler",
    "parse",
    "parse_config",
    "picard_step",
    "pointwise",
    "reconstruct_x",
    "reference_problem",
    "residual_caputo",
    "resolve_theta",
    "shifted_reference_problem",
    "solve",
    "solve_family",
    "to_source",
    "validate_exact",
]
