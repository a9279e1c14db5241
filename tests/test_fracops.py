import math

import numpy as np
import pytest

from fracpicard.errors import DomainError, GridMismatchError
from fracpicard.fracops import _NEAR, build_weights, caputo_l1, frac_integral
from fracpicard.grid import GridFunction, UniformGrid
from fracpicard.specfun import mittag_leffler

from oracles import (
    caputo_l1_loop,
    caputo_power,
    frac_integral_power,
    trapezoid_integral,
    trapezoid_weights,
)

# One near-field block and both sides of its edge, a grid that is not a
# power-of-two multiple of it, and a large grid.
SIZES = [8, _NEAR, _NEAR + 1, 1000, 4096]


class TestBuildWeights:
    def test_row_zero_is_zero(self):
        w = build_weights(0.5, UniformGrid(1.0, 2)).to_dense()
        assert np.all(w[0] == 0.0)

    def test_lower_triangular_and_nonnegative(self):
        w = build_weights(0.3, UniformGrid(2.0, 16)).to_dense()
        assert np.all(w[np.triu_indices(17, k=1)] == 0.0)
        assert np.all(w >= 0.0)
        # strictly positive where the stencil reaches
        for k in range(1, 17):
            assert np.all(w[k, : k + 1] > 0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_row_sums_match_power_rule(self, alpha):
        grid = UniformGrid(0.5, 64)
        w = build_weights(alpha, grid).to_dense()
        nodes = grid.nodes()
        for k in range(1, 65):
            expected = nodes[k] ** alpha / math.gamma(alpha + 1.0)
            assert float(w[k].sum()) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            build_weights(alpha, UniformGrid(1.0, 4))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.85])
    @pytest.mark.parametrize("n", [2, 3, 8, 100, 481])
    def test_dense_matches_oracle(self, alpha, n):
        expected = trapezoid_weights(alpha, 1.3, n)
        w = build_weights(alpha, UniformGrid(1.3, n)).to_dense()
        assert np.allclose(w, expected, rtol=1e-13, atol=0.0)

    def test_storage_is_linear(self):
        weights = build_weights(0.5, UniformGrid(1.0, 1000))
        assert weights.kernel.shape == (1000,)
        assert weights.column0.shape == (1001,)
        assert not weights.kernel.flags.writeable
        assert not weights.column0.flags.writeable


class TestFracIntegral:
    def test_zero_maps_to_zero(self):
        grid = UniformGrid(1.0, 32)
        w = build_weights(0.5, grid)
        z = GridFunction.constant(grid, 0.0)
        assert np.all(frac_integral(w, z).values == 0.0)

    def test_constant_power_rule(self):
        grid = UniformGrid(0.5, 32)
        w = build_weights(0.5, grid)
        z = GridFunction.constant(grid, [2.0, -3.0])
        out = frac_integral(w, z)
        nodes = grid.nodes()
        for k in range(1, 33):
            scale = nodes[k] ** 0.5 / math.gamma(1.5)
            assert out.values[k, 0] == pytest.approx(2.0 * scale, rel=1e-12)
            assert out.values[k, 1] == pytest.approx(-3.0 * scale, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_power_rule_exact_for_piecewise_linear(self, beta):
        grid = UniformGrid(1.0, 1024)
        w = build_weights(0.5, grid)
        z = GridFunction.sample(grid, lambda t: np.array([t**beta]))
        out = frac_integral(w, z)
        nodes = grid.nodes()
        for k in (1, 7, 128, 1024):
            expected = frac_integral_power(0.5, beta, float(nodes[k]))
            assert out.values[k, 0] == pytest.approx(expected, rel=1e-12)

    def test_power_rule_quadratic(self):
        grid = UniformGrid(1.0, 1024)
        w = build_weights(0.5, grid)
        z = GridFunction.sample(grid, lambda t: np.array([t * t]))
        out = frac_integral(w, z)
        expected = frac_integral_power(0.5, 2.0, 1.0)
        assert out.values[-1, 0] == pytest.approx(expected, rel=2e-3)

    @pytest.mark.parametrize("alpha,theta", [(0.5, 2.0), (1.0 / 3.0, 3.0), (0.75, 1.0)])
    def test_mittag_leffler_integral_identity(self, alpha, theta):
        # I^alpha E_alpha(theta t^alpha) = (E_alpha(theta t^alpha) - 1) / theta
        grid = UniformGrid(0.5, 1024)
        w = build_weights(alpha, grid)
        z = GridFunction.sample(
            grid, lambda t: np.array([mittag_leffler(alpha, theta * t**alpha)])
        )
        out = frac_integral(w, z)
        expected = (mittag_leffler(alpha, theta * 0.5**alpha) - 1.0) / theta
        assert out.values[-1, 0] == pytest.approx(expected, rel=5e-3)

    def test_linearity(self):
        grid = UniformGrid(1.0, 256)
        w = build_weights(0.5, grid)
        z1 = GridFunction.sample(grid, lambda t: np.array([math.sin(3.0 * t)]))
        z2 = GridFunction.sample(grid, lambda t: np.array([math.cos(2.0 * t)]))
        combo = GridFunction(grid, 2.0 * z1.values - 3.0 * z2.values)
        lhs = frac_integral(w, combo).values
        rhs = 2.0 * frac_integral(w, z1).values - 3.0 * frac_integral(w, z2).values
        scale = float(np.max(np.abs(rhs)))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * scale

    def test_positivity(self):
        grid = UniformGrid(1.0, 64)
        w = build_weights(0.5, grid)
        z = GridFunction.sample(grid, lambda t: np.array([1.0 + math.sin(t)]))
        assert np.all(frac_integral(w, z).values >= 0.0)

    def test_semigroup_at_desk_scale(self):
        grid = UniformGrid(1.0, 1024)
        z = GridFunction.sample(grid, lambda t: np.array([math.exp(t)]))
        twice = frac_integral(
            build_weights(0.3, grid), frac_integral(build_weights(0.4, grid), z)
        )
        once = frac_integral(build_weights(0.7, grid), z)
        assert twice.values[-1, 0] == pytest.approx(once.values[-1, 0], rel=5e-3)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_oracle_matvec(self, n):
        rng = np.random.default_rng(n)
        grid = UniformGrid(0.8, n)
        z = rng.standard_normal((n + 1, 2))
        out = frac_integral(build_weights(0.4, grid), GridFunction(grid, z)).values
        expected = trapezoid_integral(0.4, 0.8, z)
        assert np.all(out[0] == 0.0)
        assert float(np.max(np.abs(out - expected))) <= 1e-13 * float(np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", [1000, 4096])
    def test_nodewise_accuracy_on_growing_data(self, n):
        # exp(30 t) spans 13 decades: an error relative to the largest
        # value would swamp the early nodes.
        grid = UniformGrid(1.0, n)
        t = grid.nodes()
        z = np.stack([np.exp(30.0 * t), -np.exp(20.0 * t) * np.cos(40.0 * t)], axis=1)
        out = frac_integral(build_weights(0.5, grid), GridFunction(grid, z)).values
        expected = trapezoid_integral(0.5, 1.0, z)
        rel = np.abs(out[1:, 0] - expected[1:, 0]) / expected[1:, 0]
        assert float(np.max(rel)) <= 1e-13
        # The oscillating column changes sign: scale by the largest term at or before each node.
        past = np.maximum.accumulate(np.abs(z[:, 1]))[1:] * t[1:] ** 0.5
        assert float(np.max(np.abs(out[1:, 1] - expected[1:, 1]) / past)) <= 1e-13

    def test_later_values_never_reach_earlier_nodes(self):
        grid = UniformGrid(1.0, 1000)
        z = np.zeros((1001, 1))
        z[700:] = 1e12
        out = frac_integral(build_weights(0.3, grid), GridFunction(grid, z)).values
        assert np.all(out[:700] == 0.0)
        assert np.all(out[700:] > 0.0)

    def test_grid_mismatch(self):
        w = build_weights(0.5, UniformGrid(1.0, 8))
        z = GridFunction.constant(UniformGrid(1.0, 16), 1.0)
        with pytest.raises(DomainError, match="weights were built for grid"):
            frac_integral(w, z)


class TestCaputoL1:
    def test_constant_maps_to_zero(self):
        grid = UniformGrid(1.0, 64)
        x = GridFunction.constant(grid, [4.0, -1.0])
        out = caputo_l1(0.5, x)
        assert float(np.max(np.abs(out.values))) <= 1e-12

    def test_linear_is_exact(self):
        # The L1 stencil reproduces D^alpha t exactly: the difference
        # quotients equal the true derivative, a constant.
        grid = UniformGrid(1.0, 1024)
        x = GridFunction.sample(grid, lambda t: np.array([t]))
        out = caputo_l1(0.5, x)
        nodes = grid.nodes()
        for k in (1, 13, 512, 1024):
            expected = caputo_power(0.5, 1.0, float(nodes[k]))
            assert out.values[k, 0] == pytest.approx(expected, rel=1e-12)

    def test_sqrt_near_singularity(self):
        grid = UniformGrid(0.5, 4096)
        x = GridFunction.sample(grid, lambda t: np.array([math.sqrt(t)]))
        out = caputo_l1(0.5, x)
        # D^{1/2} sqrt(t) is the constant sqrt(pi)/2; x' blows up at 0,
        # hence the loose tolerance.
        k = 2048  # t = 0.25
        assert abs(out.values[k, 0] - math.sqrt(math.pi) / 2.0) <= 5e-2
        assert abs(out.values[k, 0] - math.sqrt(math.pi) / 2.0) <= 1e-4

    def test_node_zero_copies_node_one(self):
        grid = UniformGrid(1.0, 16)
        x = GridFunction.sample(grid, lambda t: np.array([t * t]))
        out = caputo_l1(0.5, x)
        assert np.all(out.values[0] == out.values[1])

    def test_composition_recovers_integrand(self):
        grid = UniformGrid(1.0, 2048)
        z = GridFunction.sample(grid, lambda t: np.array([math.exp(t)]))
        w = build_weights(0.4, grid)
        back = caputo_l1(0.4, frac_integral(w, z))
        k0 = 2048 // 8
        gap = float(np.max(np.abs(back.values[k0:] - z.values[k0:])))
        assert gap <= 5e-2

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_loop_oracle(self, n):
        rng = np.random.default_rng(n + 1)
        grid = UniformGrid(0.8, n)
        x = rng.standard_normal((n + 1, 2))
        out = caputo_l1(0.6, GridFunction(grid, x)).values
        expected = caputo_l1_loop(0.6, 0.8, x)
        assert float(np.max(np.abs(out - expected))) <= 1e-13 * float(np.max(np.abs(expected)))

    def test_nodewise_accuracy_on_growing_data(self):
        grid = UniformGrid(1.0, 4096)
        x = np.exp(30.0 * grid.nodes())[:, None]
        out = caputo_l1(0.6, GridFunction(grid, x)).values
        expected = caputo_l1_loop(0.6, 1.0, x)
        assert float(np.max(np.abs(out - expected) / expected)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_alpha_domain(self, alpha):
        grid = UniformGrid(1.0, 4)
        with pytest.raises(DomainError):
            caputo_l1(alpha, GridFunction.constant(grid, 1.0))
