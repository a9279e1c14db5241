import math

import numpy as np
import pytest

from fracpicard.errors import DomainError
from fracpicard.fixtures import (
    Fixture,
    builtin_fixtures,
    get_fixture,
    linear_problem,
    validate_exact,
)
from fracpicard.rhsdsl import as_rhs, parse
from fracpicard.sampling import halton_points
from fracpicard.specfun import mittag_leffler

from oracles import erfc_identity


class TestRegistry:
    def test_builtin_names(self):
        assert sorted(builtin_fixtures()) == [
            "comparison",
            "linear",
            "reference",
            "shifted_reference",
        ]

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown fixture 'nope'"):
            get_fixture("nope")

    def test_fixtures_are_self_describing(self):
        for name in builtin_fixtures():
            fx = get_fixture(name)
            assert isinstance(fx, Fixture)
            assert fx.name == name
            assert fx.rhs_text

    @pytest.mark.parametrize("name", sorted(builtin_fixtures()))
    def test_rhs_text_matches_spec_rhs(self, name):
        # The formula a config file would carry is the fixture's own rhs.
        fx = builtin_fixtures()[name]
        pts = halton_points(300, 3)
        t = pts[:, :1] * fx.spec.T
        x = 4.0 * pts[:, 1:2] - 2.0
        y = 4.0 * pts[:, 2:] - 2.0
        formula = as_rhs([parse(text) for text in fx.rhs_text])
        np.testing.assert_allclose(formula(t, x, y), fx.spec.rhs(t, x, y), rtol=0.0, atol=1e-15)


class TestReference:
    def test_initial_value(self, reference):
        assert reference.exact_solution(0.0) == pytest.approx(1.0)

    def test_exact_solution_formula(self, reference):
        # x(t) = sqrt(t) + E_{1/2}(sqrt(t)), checked against the erfc form
        for t in [0.0, 0.1, 0.25, 0.5]:
            expected = math.sqrt(t) + erfc_identity(math.sqrt(t))
            assert reference.exact_solution(t)[0] == pytest.approx(
                expected, rel=1e-10
            )

    def test_exact_derivative_formula(self, reference):
        for t in [0.0, 0.1, 0.5]:
            expected = math.sqrt(math.pi) / 2.0 + erfc_identity(math.sqrt(t))
            assert reference.exact_derivative(t)[0] == pytest.approx(
                expected, rel=1e-10
            )

    def test_residual_validation(self, reference):
        alg, cap = validate_exact(reference, n=2048)
        assert alg <= 1e-12
        assert cap <= 1e-4

    def test_constants(self, reference):
        spec = reference.spec
        assert spec.alpha == 0.5
        assert spec.T == 0.5
        assert spec.M1 == spec.M2 == spec.M3 == 0.5


class TestShiftedReference:
    def test_shift_makes_solution_exact(self):
        fx = get_fixture("shifted_reference")
        assert fx.spec.x0[0] == pytest.approx(1.0 - math.sqrt(math.pi) / 2.0, abs=1e-15)
        alg, cap = validate_exact(fx, n=2048)
        assert alg <= 1e-12
        assert cap <= 1e-4


class TestComparison:
    def test_no_ground_truth(self):
        fx = get_fixture("comparison")
        assert fx.exact_solution is None
        with pytest.raises(DomainError, match="no closed-form ground truth"):
            validate_exact(fx)

    def test_shares_reference_shape(self):
        fx = get_fixture("comparison")
        ref = get_fixture("reference")
        assert fx.spec.alpha == ref.spec.alpha
        assert fx.spec.T == ref.spec.T


class TestLinear:
    def test_zero_rate_is_constant(self):
        fx = linear_problem(0.0, 0.5, 3.0, 1.0)
        for t in np.linspace(0.0, 1.0, 7):
            assert fx.exact_solution(t)[0] == pytest.approx(3.0, abs=1e-15)

    def test_exact_solution_uses_one_parameter_series(self):
        fx = linear_problem(0.8, 0.5, 1.0, 0.5)
        expected = mittag_leffler(0.5, 0.8 * math.sqrt(0.5))
        assert fx.exact_solution(0.5)[0] == pytest.approx(expected, rel=1e-13)

    def test_negative_rate_decays(self):
        fx = linear_problem(-1.0, 0.5, 1.0, 0.5)
        vals = np.array([fx.exact_solution(t)[0] for t in [0.0, 0.1, 0.3, 0.5]])
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] == pytest.approx(erfc_identity(-math.sqrt(0.5)), rel=1e-10)

    def test_residual_validation(self):
        fx = linear_problem(0.8, 0.5, 1.0, 0.5)
        alg, cap = validate_exact(fx, n=2048)
        assert alg <= 1e-12
        assert cap <= 1e-3

    def test_constants(self):
        fx = linear_problem(0.8, 0.5, 1.0, 0.5)
        assert fx.spec.M1 == 0.0
        assert fx.spec.M2 == pytest.approx(0.8)
        assert fx.spec.M3 == 0.0

    def test_integer_order_is_out_of_scope(self):
        # the classical first-order case collapses to exp, but the solver's
        # order domain is the open unit interval, so the factory refuses it;
        # the mathematical limit is still checkable through the series
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
            linear_problem(1.0, 1.0, 1.0, 0.5)
        for t in [0.0, 0.5, 1.0, 2.0]:
            assert mittag_leffler(1.0, t) == pytest.approx(math.exp(t), rel=1e-12)

