import math

import numpy as np
import pytest

from fracpicard.errors import DomainError, FracpicardError, SeriesConvergenceError
from fracpicard.grid import UniformGrid
from fracpicard.solver import _ml_weights, _weight_vector
from fracpicard.specfun import mittag_leffler, mittag_leffler_array

from oracles import erfc_identity, ml_series


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

    def test_keeps_shape(self):
        z = np.array([[0.5, 1.0], [2.0, 3.0]])
        out = mittag_leffler_array(0.5, z)
        assert out.shape == (2, 2)
        for zk, value in zip(z.ravel().tolist(), out.ravel().tolist()):
            assert value == mittag_leffler(0.5, zk)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.5])
    def test_order_domain(self, alpha):
        with pytest.raises(DomainError):
            mittag_leffler_array(alpha, np.array([0.5]))

    @pytest.mark.parametrize(
        "z,error",
        [
            ([0.5, 250.0, -7.0], DomainError),
            ([0.5, 30.0, 250.0], SeriesConvergenceError),
        ],
    )
    def test_strict_raises_the_scalar_error_of_the_first_failure(self, z, error):
        with pytest.raises(error) as scalar:
            mittag_leffler(0.5, z[1])
        with pytest.raises(error) as array:
            mittag_leffler_array(0.5, np.array(z), strict=True)
        assert str(array.value) == str(scalar.value)


class TestBieleckiWeight:
    """The norm weights ``E_alpha(theta * t**alpha)`` the solver divides by."""

    def test_at_time_zero(self):
        assert _ml_weights(np.array([0.0]), 0.5, 2.0)[0] == 1.0

    def test_order_one_exponential(self):
        assert _ml_weights(np.array([1.0]), 1.0, 1.0)[0] == pytest.approx(math.e, rel=1e-12)

    def test_half_order_value(self):
        t = 0.5
        z = 2.0 * t**0.5
        assert _ml_weights(np.array([t]), 0.5, 2.0)[0] == pytest.approx(erfc_identity(z), rel=1e-10)

    def test_weight_at_least_one_and_nondecreasing(self):
        values = _weight_vector(UniformGrid(0.5, 39), 0.5, 2.0).tolist()
        assert all(v >= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        for theta in (0.0, -1.0):
            with pytest.raises(DomainError):
                _weight_vector(UniformGrid(0.5, 8), 0.5, theta)
