import math

import numpy as np
import pytest

from fracpicard.errors import DomainError, FracpicardError, SeriesConvergenceError
from fracpicard.specfun import (
    SeriesControl,
    bielecki_weight,
    gamma,
    mittag_leffler,
    mittag_leffler_array,
)

from oracles import erfc_identity, ml_series


class TestGamma:
    def test_classical_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_recurrence_on_log_grid(self):
        for x in np.logspace(math.log10(0.5), math.log10(20.0), 100):
            x = float(x)
            assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * gamma(x + 1.0)

    def test_accuracy_against_lgamma(self):
        for x in np.logspace(-1, math.log10(50.0), 60):
            x = float(x)
            assert gamma(x) == pytest.approx(math.exp(math.lgamma(x)), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, 172.0, 1000.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)

    def test_domain_error_is_value_error(self):
        # DomainError doubles as ValueError so generic callers can catch it.
        with pytest.raises(ValueError):
            gamma(-2.0)

    def test_upper_edge_is_finite(self):
        assert math.isfinite(gamma(171.0))


class TestSeriesControl:
    def test_defaults(self):
        control = SeriesControl()
        assert control.rel_tol == 1e-14
        assert control.max_terms == 400

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-9, 1e-6, 1e-3])
    def test_rejects_bad_rel_tol(self, rel_tol):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=rel_tol)

    @pytest.mark.parametrize("max_terms", [0, 10, 49])
    def test_rejects_small_budget(self, max_terms):
        with pytest.raises(DomainError):
            SeriesControl(max_terms=max_terms)

    def test_custom_control_accepted(self):
        control = SeriesControl(rel_tol=1e-8, max_terms=50)
        assert mittag_leffler(0.5, 1.0, control) == pytest.approx(
            erfc_identity(1.0), rel=1e-7
        )


class TestMittagLeffler:
    def test_value_at_zero_is_one_exactly(self):
        for alpha in (0.1, 1.0 / 3.0, 0.5, 0.75, 1.0):
            assert mittag_leffler(alpha, 0.0) == 1.0

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_order_one_is_exp(self, z):
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= 1e-12 * math.exp(z)

    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    def test_half_order_erfc_identity(self, z):
        assert abs(mittag_leffler(0.5, z) - erfc_identity(z)) <= 1e-10

    def test_half_order_negative_argument(self):
        # The identity holds for negative z too, but the alternating series
        # cancels roughly like exp(z^2), so the achievable absolute accuracy
        # degrades with |z|; the tolerance tracks that conditioning limit.
        for z in (-0.5, -1.0, -2.0):
            assert mittag_leffler(0.5, z) == pytest.approx(erfc_identity(z), rel=1e-9)
        assert mittag_leffler(0.5, -5.0) == pytest.approx(
            erfc_identity(-5.0), abs=1e-16 * math.exp(25.0) * 10.0
        )

    @pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.75, 0.9])
    @pytest.mark.parametrize("z", [0.5, 1.0, 4.0])
    def test_against_plain_series(self, alpha, z):
        assert mittag_leffler(alpha, z) == pytest.approx(
            ml_series(alpha, z, terms=3000), rel=1e-12
        )

    @pytest.mark.parametrize(
        "alpha,z,rel",
        [
            # small alpha makes the alternating series ill-conditioned for
            # large |z| (peak term ~4e10 at alpha=1/3, z=-3), so the checked
            # points stay where float terms still carry the answer
            (1.0 / 3.0, -1.0, 1e-12),
            (0.75, -3.0, 1e-10),
            (0.9, -3.0, 1e-10),
        ],
    )
    def test_against_plain_series_negative(self, alpha, z, rel):
        assert mittag_leffler(alpha, z) == pytest.approx(
            ml_series(alpha, z, terms=3000), rel=rel
        )

    def test_monotone_in_nonnegative_argument(self):
        zs = np.linspace(0.0, 8.0, 50)
        values = [mittag_leffler(0.5, float(z)) for z in zs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "alpha,z",
        [(0.0, 1.0), (-0.5, 1.0), (1.2, 1.0), (0.5, -5.1), (0.5, 200.5)],
    )
    def test_domain_errors(self, alpha, z):
        with pytest.raises(DomainError):
            mittag_leffler(alpha, z)

    def test_large_argument_order_one(self):
        # z = 200 is inside the documented domain and exp-summable.
        assert mittag_leffler(1.0, 200.0) == pytest.approx(math.exp(200.0), rel=1e-12)

    def test_slow_series_raises_budget_error(self):
        # At small alpha the series needs astronomically many terms; the
        # budget error is the contract, not a wrong value.
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(0.1, 150.0)
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(0.5, 200.0)


class TestMittagLefflerArray:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.73, 1.0])
    def test_bitwise_equal_to_scalar(self, alpha):
        # Out-of-domain and non-settling elements are NaN where the
        # scalar function raises.
        rng = np.random.default_rng(17)
        z = np.concatenate(
            [rng.uniform(-6.0, 210.0, 400), [0.0, -5.0, 200.0, 150.0, math.nan, math.inf]]
        )
        out = mittag_leffler_array(alpha, z)
        for zk, value in zip(z.tolist(), out.tolist()):
            try:
                expected = mittag_leffler(alpha, zk)
            except FracpicardError:
                assert math.isnan(value), zk
            else:
                assert value == expected, zk

    def test_keeps_shape_and_control(self):
        z = np.array([[0.5, 1.0], [2.0, 3.0]])
        control = SeriesControl(rel_tol=1e-9, max_terms=100)
        out = mittag_leffler_array(0.5, z, control)
        assert out.shape == (2, 2)
        for zk, value in zip(z.ravel().tolist(), out.ravel().tolist()):
            assert value == mittag_leffler(0.5, zk, control)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.5])
    def test_order_domain(self, alpha):
        with pytest.raises(DomainError):
            mittag_leffler_array(alpha, np.array([0.5]))

    @pytest.mark.parametrize(
        "z,control,error",
        [
            ([0.5, 250.0, -7.0], None, DomainError),
            ([0.5, 30.0, 250.0], SeriesControl(max_terms=50), SeriesConvergenceError),
        ],
    )
    def test_strict_raises_the_scalar_error_of_the_first_failure(self, z, control, error):
        with pytest.raises(error) as scalar:
            mittag_leffler(0.5, z[1], control)
        with pytest.raises(error) as array:
            mittag_leffler_array(0.5, np.array(z), control, strict=True)
        assert str(array.value) == str(scalar.value)


class TestBieleckiWeight:
    def test_at_time_zero(self):
        assert bielecki_weight(0.5, 2.0, 0.0) == 1.0

    def test_order_one_exponential(self):
        assert bielecki_weight(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_half_order_value(self):
        t = 0.5
        z = 2.0 * t**0.5
        assert bielecki_weight(0.5, 2.0, t) == pytest.approx(erfc_identity(z), rel=1e-10)

    def test_weight_at_least_one_and_nondecreasing(self):
        ts = np.linspace(0.0, 0.5, 40)
        values = [bielecki_weight(0.5, 2.0, float(t)) for t in ts]
        assert all(v >= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bielecki_weight(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            bielecki_weight(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            bielecki_weight(0.5, 2.0, -0.1)
