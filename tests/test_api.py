"""The public surface: exactly these names, each resolving, none of the removed ones."""

import importlib
import pkgutil

import pytest

import fracpicard

PUBLIC = [
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

# No code path, README section or paper result uses these; only their own
# tests did, so they are kept out of the surface.
REMOVED = [
    "gamma",
    "bielecki_weight",
    "SeriesControl",
    "chebyshev_norm",
    "select_theta",
    "estimate_lipschitz",
    "LipschitzEstimate",
    "export_config",
]

MODULES = [
    importlib.import_module(f"fracpicard.{info.name}")
    for info in pkgutil.iter_modules(fracpicard.__path__)
]


def test_package_exports_exactly_the_public_names():
    assert sorted(fracpicard.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fracpicard, name) is not None


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_module_all_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name


@pytest.mark.parametrize("module", [fracpicard, *MODULES], ids=lambda m: m.__name__)
def test_removed_names_stay_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_members_stay_gone():
    from fracpicard.config import RunConfig
    from fracpicard.fixtures import Fixture
    from fracpicard.grid import GridFunction

    assert not hasattr(Fixture, "source")
    assert not hasattr(Fixture, "metadata")
    assert not hasattr(RunConfig, "compare_fixture")
    assert not hasattr(GridFunction, "__add__")
