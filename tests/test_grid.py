import numpy as np
import pytest

from fracpicard.errors import DomainError, GridMismatchError
from fracpicard.grid import GridFunction, UniformGrid


class TestUniformGrid:
    def test_nodes_and_step(self):
        grid = UniformGrid(T=0.5, n=4)
        assert grid.h == pytest.approx(0.125)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 0.5
        assert len(nodes) == 5
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 1), (1.0, 0)])
    def test_rejects_bad_shape(self, T, n):
        with pytest.raises(DomainError):
            UniformGrid(T=T, n=n)

    def test_equality_is_by_value(self):
        assert UniformGrid(1.0, 8) == UniformGrid(1.0, 8)
        assert UniformGrid(1.0, 8) != UniformGrid(1.0, 16)


class TestGridFunction:
    def test_scalar_values_lift_to_column(self):
        grid = UniformGrid(1.0, 4)
        f = GridFunction(grid, np.zeros(5))
        assert f.values.shape == (5, 1)
        assert f.dim == 1

    def test_vector_values_kept(self):
        grid = UniformGrid(1.0, 4)
        f = GridFunction(grid, np.ones((5, 3)))
        assert f.dim == 3

    def test_wrong_length_rejected(self):
        grid = UniformGrid(1.0, 4)
        with pytest.raises(DomainError):
            GridFunction(grid, np.zeros(4))

    def test_non_finite_rejected(self):
        grid = UniformGrid(1.0, 4)
        values = np.zeros(5)
        values[2] = np.nan
        with pytest.raises(DomainError):
            GridFunction(grid, values)
        values[2] = np.inf
        with pytest.raises(DomainError):
            GridFunction(grid, values)

    def test_values_are_frozen_and_copied(self):
        grid = UniformGrid(1.0, 4)
        source = np.zeros(5)
        f = GridFunction(grid, source)
        source[0] = 7.0  # caller mutation must not leak in
        assert f.values[0, 0] == 0.0
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_constant_and_sample(self):
        grid = UniformGrid(0.5, 4)
        c = GridFunction.constant(grid, [2.0, -1.0])
        assert c.values.shape == (5, 2)
        assert np.all(c.values[:, 0] == 2.0)
        s = GridFunction.sample(grid, lambda t: np.array([t, 2.0 * t]))
        assert s.values[4, 0] == pytest.approx(0.5)
        assert s.values[4, 1] == pytest.approx(1.0)

    def test_arithmetic(self):
        grid = UniformGrid(1.0, 2)
        a = GridFunction.constant(grid, 3.0)
        b = GridFunction.constant(grid, 1.0)
        assert np.all((a - b).values == 2.0)

    def test_grid_mismatch(self):
        a = GridFunction.constant(UniformGrid(1.0, 2), 1.0)
        b = GridFunction.constant(UniformGrid(1.0, 4), 1.0)
        with pytest.raises(GridMismatchError):
            a.require_same_grid(b)
        with pytest.raises(GridMismatchError):
            _ = a - b
