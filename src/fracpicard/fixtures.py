"""Built-in problems with known behavior, for tests, docs, and self-checks.

Three of a kind: a reference problem whose solution is known in closed
form, a constant-shift companion of it (also exact) for distance-bound
demonstrations, and a comparison variant with no known closed form that
pairs with the reference in bound checks.  A linear family rounds these
out as a tunable oracle.  Config files name these problems with the
``fixture`` key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import GridFunction, UniformGrid
from .solver import ProblemSpec, residual_caputo
from .specfun import mittag_leffler

__all__ = [
    "Fixture",
    "reference_problem",
    "shifted_reference_problem",
    "comparison_problem",
    "linear_problem",
    "builtin_fixtures",
    "get_fixture",
    "validate_exact",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Fixture:
    """A named problem bundled with whatever ground truth it has.

    Attributes:
        name: registry key.
        spec: the problem definition.
        rhs_text: the right-hand side as a parseable formula (one per
            component), the same function as ``spec.rhs``.
        exact_solution: closed-form ``t -> R^d`` state, or ``None``.
        exact_derivative: closed-form ``t -> R^d`` fractional derivative
            of the solution, or ``None``.
    """

    name: str
    spec: ProblemSpec
    rhs_text: tuple[str, ...]
    exact_solution: Callable[[float], np.ndarray] | None = None
    exact_derivative: Callable[[float], np.ndarray] | None = None


def _reference_rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _SQRT_PI / 4.0 - np.sqrt(t) / 2.0 + (x + np.abs(y)) / 2.0


def _reference_exact(t: float) -> np.ndarray:
    return np.array([math.sqrt(t) + mittag_leffler(0.5, math.sqrt(t))])


def _reference_exact_derivative(t: float) -> np.ndarray:
    return np.array([_SQRT_PI / 2.0 + mittag_leffler(0.5, math.sqrt(t))])


def reference_problem() -> Fixture:
    """The package's reference problem: order 1/2, absolute-value coupling.

    ``f(t, x, y) = sqrt(pi)/4 - sqrt(t)/2 + (x + |y|)/2`` on ``[0, 0.5]``
    with ``x(0) = 1`` and Lipschitz constants ``1/2`` in every argument.
    The solution is ``x(t) = sqrt(t) + E_{1/2}(sqrt(t))`` and its
    derivative is ``z(t) = sqrt(pi)/2 + E_{1/2}(sqrt(t))``; both are
    validated by the residual self-check.
    """
    spec = ProblemSpec(
        alpha=0.5,
        T=0.5,
        x0=np.array([1.0]),
        rhs=_reference_rhs,
        M1=0.5,
        M2=0.5,
        M3=0.5,
    )
    return Fixture(
        name="reference",
        spec=spec,
        rhs_text=("sqrt(pi)/4 - t^(1/2)/2 + (x + abs(y))/2",),
        exact_solution=_reference_exact,
        exact_derivative=_reference_exact_derivative,
    )


def _shifted_rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _SQRT_PI / 2.0 - np.sqrt(t) / 2.0 + (x + np.abs(y)) / 2.0


def _shifted_exact(t: float) -> np.ndarray:
    return _reference_exact(t) - _SQRT_PI / 2.0


def shifted_reference_problem() -> Fixture:
    """Constant-shift companion of the reference problem, also exact.

    Same dynamics with the constant term raised to ``sqrt(pi)/2`` and the
    initial value lowered to ``1 - sqrt(pi)/2``; the solution is the
    reference solution minus ``sqrt(pi)/2``, with the same derivative
    (constant shifts have zero fractional derivative).  Pairing it with
    the reference problem exercises the data-dependence bound.
    """
    spec = ProblemSpec(
        alpha=0.5,
        T=0.5,
        x0=np.array([1.0 - _SQRT_PI / 2.0]),
        rhs=_shifted_rhs,
        M1=0.5,
        M2=0.5,
        M3=0.5,
    )
    return Fixture(
        name="shifted_reference",
        spec=spec,
        rhs_text=("sqrt(pi)/2 - t^(1/2)/2 + (x + abs(y))/2",),
        exact_solution=_shifted_exact,
        exact_derivative=_reference_exact_derivative,
    )


def _comparison_rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(t) / 2.0 + (x + np.abs(y)) / 2.0


def comparison_problem() -> Fixture:
    """A nearby problem with no known closed-form solution.

    ``g(t, x, y) = sqrt(t)/2 + (x + |y|)/2`` with the same constants and
    initial value as the shifted companion.  Its gap to the reference
    right-hand side is enveloped by ``sqrt(pi)/4 + sqrt(t)``, whose
    supremum over ``[0, 0.5]`` is ``1.1502`` rounded; use it for bound
    demonstrations only, never as ground truth.
    """
    spec = ProblemSpec(
        alpha=0.5,
        T=0.5,
        x0=np.array([1.0 - _SQRT_PI / 2.0]),
        rhs=_comparison_rhs,
        M1=0.5,
        M2=0.5,
        M3=0.5,
    )
    return Fixture(
        name="comparison",
        spec=spec,
        rhs_text=("t^(1/2)/2 + (x + abs(y))/2",),
    )


def linear_problem(lam: float, alpha: float, x0: float, T: float) -> Fixture:
    """Linear oracle problem ``D^alpha x = lam * x``.

    The solution is ``x(t) = x0 * E_alpha(lam * t**alpha)`` with
    derivative ``lam * x(t)``.  ``M2`` is ``|lam|`` and ``M3`` is zero,
    since the right-hand side ignores ``y``.

    Args:
        lam: eigenvalue; keep ``lam * T**alpha`` within ``[-5, 200]`` so
            the solution's Mittag-Leffler values are evaluable.
        alpha: order in ``(0, 1)``.
        x0: scalar initial value.
        T: horizon, ``> 0``.
    """
    lam = float(lam)

    def rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return lam * x

    def exact(t: float) -> np.ndarray:
        return np.array([x0 * mittag_leffler(alpha, lam * t**alpha)])

    def exact_derivative(t: float) -> np.ndarray:
        return lam * exact(t)

    spec = ProblemSpec(
        alpha=alpha,
        T=T,
        x0=np.array([float(x0)]),
        rhs=rhs,
        M1=0.0,
        M2=abs(lam),
        M3=0.0,
    )
    return Fixture(
        name=f"linear(lam={lam:g}, alpha={alpha:g}, x0={x0:g}, T={T:g})",
        spec=spec,
        rhs_text=(f"{lam!r}*x",),
        exact_solution=exact,
        exact_derivative=exact_derivative,
    )


def builtin_fixtures() -> dict[str, Fixture]:
    """All registry fixtures by name (the linear entry uses defaults)."""
    linear = replace(linear_problem(0.5, 0.5, 1.0, 0.5), name="linear")
    return {
        "reference": reference_problem(),
        "shifted_reference": shifted_reference_problem(),
        "comparison": comparison_problem(),
        "linear": linear,
    }


def get_fixture(name: str) -> Fixture:
    """Look up a registry fixture; raises DomainError for unknown names."""
    table = builtin_fixtures()
    fixture = table.get(name)
    if fixture is None:
        raise DomainError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(table))}"
        )
    return fixture


def validate_exact(fixture: Fixture, n: int = 4096) -> tuple[float, float]:
    """Residual self-check of a fixture's closed-form ground truth.

    Samples the exact solution and derivative on an ``n``-step grid,
    scores both residuals, and returns their maxima over nodes
    ``k >= n // 8`` (the early nodes sit on the derivative singularity
    that grid sampling resolves slowly).

    Args:
        fixture: must carry ``exact_solution`` and ``exact_derivative``.
        n: grid resolution.

    Returns:
        ``(max_algebraic, max_caputo)`` over the scored nodes.

    Raises:
        DomainError: if the fixture has no closed-form ground truth.
    """
    if fixture.exact_solution is None or fixture.exact_derivative is None:
        raise DomainError(f"fixture {fixture.name!r} has no closed-form ground truth")
    grid = UniformGrid(fixture.spec.T, n)
    x = GridFunction.sample(grid, fixture.exact_solution)
    z = GridFunction.sample(grid, fixture.exact_derivative)
    res = residual_caputo(fixture.spec, x, z)
    start = max(1, n // 8)
    alg = float(np.max(np.linalg.norm(res.algebraic.values[start:], axis=1)))
    cap = float(np.max(np.linalg.norm(res.caputo.values[start:], axis=1)))
    return alg, cap

