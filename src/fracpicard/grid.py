"""Uniform time grids and vector-valued functions sampled on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError

__all__ = ["UniformGrid", "GridFunction"]


@dataclass(frozen=True)
class UniformGrid:
    """Equally spaced nodes ``t_k = k * T / n`` for ``k = 0..n``.

    Attributes:
        T: right endpoint of the interval, ``> 0``.
        n: number of steps, ``>= 2`` (so there are ``n + 1`` nodes).
    """

    T: float
    n: int

    def __post_init__(self):
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise DomainError(f"T must be a positive finite real, got {self.T}")
        if self.n < 2:
            raise DomainError(f"n must be at least 2, got {self.n}")

    @property
    def h(self) -> float:
        """Step size ``T / n``."""
        return self.T / self.n

    def nodes(self) -> np.ndarray:
        """All ``n + 1`` node times, from ``0`` to ``T`` inclusive."""
        return np.linspace(0.0, self.T, self.n + 1)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function ``[0, T] -> R^d`` at the nodes of a grid.

    ``values`` has shape ``(n + 1, d)``; row ``k`` is the value at node
    ``t_k``.  Instances are immutable: the value array is copied in and
    marked read-only.
    """

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n + 1 or v.shape[1] < 1:
            raise DomainError(
                f"values must have shape ({self.grid.n + 1}, d), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, grid: UniformGrid, value) -> "GridFunction":
        """Grid function equal to ``value`` (a scalar or length-d vector) at every node."""
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(v, (grid.n + 1, 1)))

    @classmethod
    def sample(cls, grid: UniformGrid, func) -> "GridFunction":
        """Sample ``func(t)`` (returning a scalar or vector) at every node."""
        rows = [np.atleast_1d(np.asarray(func(t), dtype=float)) for t in grid.nodes()]
        return cls(grid, np.vstack(rows))

    def require_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: (T={self.grid.T}, n={self.grid.n}) vs "
                f"(T={other.grid.T}, n={other.grid.n})"
            )
        if self.dim != other.dim:
            raise GridMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self.require_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)
