"""Fixed-point solver for implicit fractional initial-value problems.

The problem solved here is ``D^alpha x(t) = f(t, x(t), D^alpha x(t))`` on
``[0, T]`` with ``x(0) = x0``, where ``D^alpha`` is the Caputo derivative
of order ``alpha`` in ``(0, 1)`` and ``f`` may depend on the derivative
itself.  Substituting ``z = D^alpha x`` turns this into a fixed-point
equation for ``z`` alone:

    z(t) = f(t, x0 + I^alpha z(t), z(t)),

with ``I^alpha`` the fractional integral.  Under the Lipschitz bounds
carried by :class:`ProblemSpec` this map is a contraction in a weighted
supremum norm whose weight grows like a Mittag-Leffler function, and
plain Picard iteration converges geometrically from any starting guess.
The solver iterates exactly that map on a uniform grid and reconstructs
``x = x0 + I^alpha z`` at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AnchorConditionError, ContractionError, DomainError, RhsEvaluationError
from .fracops import FracWeights, build_weights, caputo_l1, frac_integral
from .grid import GridFunction, UniformGrid
from .specfun import mittag_leffler_array

__all__ = [
    "ProblemSpec",
    "ContractionReport",
    "SolverConfig",
    "SolveReport",
    "Residuals",
    "resolve_theta",
    "check_contraction",
    "bielecki_norm",
    "picard_step",
    "solve",
    "reconstruct_x",
    "residual_caputo",
    "pointwise",
]

# Safety factor applied to the sampled magnitude of f(t, 0, 0).
_K_SAFETY = 1.1

# Node 0 of an anchored iterate may drift by at most this much before
# exact restoration; more indicates the anchor condition does not hold.
_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """An implicit fractional initial-value problem with Lipschitz data.

    Attributes:
        alpha: Caputo order, in ``(0, 1)``.
        T: right endpoint of the time interval, ``> 0``.
        x0: initial value, a scalar or length-``d`` vector.
        rhs: callback ``f(t, x, y)`` evaluated on a block of ``m`` nodes
            at once: ``t`` has shape ``(m, 1)``, the states ``x`` and the
            derivatives ``y`` have shape ``(m, d)``, and the result has
            shape ``(m, d)``, row ``k`` being ``f`` at node ``k``.  Write
            it with numpy operations (``lambda t, x, y: 0.5 * x``), or
            lift a per-node callable with :func:`pointwise`.
        M1: Lipschitz constant of ``f`` in ``t``, ``>= 0``.
        M2: Lipschitz constant of ``f`` in ``x``, ``>= 0``.
        M3: Lipschitz constant of ``f`` in ``y``, in ``[0, 1)``.  This is
            the implicitness strength; values ``>= 1`` leave the inner
            equation unsolvable by iteration.
    """

    alpha: float
    T: float
    x0: np.ndarray
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    M1: float
    M2: float
    M3: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"T must be a positive finite real, got {self.T}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or x0.size < 1 or not np.all(np.isfinite(x0)):
            raise DomainError("x0 must be a finite scalar or 1-d vector")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if not callable(self.rhs):
            raise DomainError("rhs must be callable")
        if self.M1 < 0.0:
            raise DomainError(f"M1 must be >= 0, got {self.M1}")
        if not (self.M2 >= 0.0):
            raise DomainError(f"M2 must be >= 0, got {self.M2}")
        if not (0.0 <= self.M3 < 1.0):
            raise DomainError(f"M3 must lie in [0,1), got {self.M3}")

    @property
    def dim(self) -> int:
        return self.x0.size


@dataclass(frozen=True)
class ContractionReport:
    """Certificate data for the fixed-point iteration.

    ``q_global`` is the contraction factor in the plain supremum norm,
    ``M2 * T**alpha / Gamma(alpha + 1) + M3``; the iteration carries a
    convergence certificate iff it is below one.  ``q_bielecki`` is the
    factor in the weighted norm actually used to measure steps,
    ``M2 / theta + M3``, which the default ``theta`` keeps below one
    regardless of ``T``.  ``K`` bounds ``|f(t, 0, 0)|`` on the grid (with
    a safety factor), and when the certificate holds, ``R`` bounds the
    derivative iterates and ``L`` is their Lipschitz constant:

        R = (M2 * |x0| + K) / (1 - q_global)
        L = (M1 + 2 * M2 * R / Gamma(alpha + 1)) / (1 - M3)

    ``R`` and ``L`` are ``None`` when ``contraction_ok`` is false.
    """

    q_global: float
    contraction_ok: bool
    K: float
    theta: float
    q_bielecki: float
    R: float | None = None
    L: float | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`solve`.

    Attributes:
        n: number of grid steps, ``>= 2``.
        tol: stopping tolerance on the weighted step norm.
        max_iter: iteration budget, ``>= 1``.
        theta_override: use this weight scale instead of the selected
            default; must keep ``M2 / theta + M3`` below one.
        initial_guess: starting derivative iterate on the solve grid;
            defaults to the constant ``f(0, x0, 0)``.
        force: run even when the contraction certificate fails, marking
            the result uncertified.
    """

    n: int
    tol: float = 1e-10
    max_iter: int = 200
    theta_override: float | None = None
    initial_guess: GridFunction | None = None
    force: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n must be at least 2, got {self.n}")
        if not (self.tol > 0.0):
            raise DomainError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.theta_override is not None and self.theta_override <= 0.0:
            raise DomainError(f"theta_override must be > 0, got {self.theta_override}")


@dataclass(frozen=True)
class SolveReport:
    """Everything :func:`solve` knows when it stops.

    ``step_norms[i]`` is the weighted norm of the ``i``-th Picard update;
    ``ratio_estimates`` are consecutive quotients of those norms, which
    settle near the observed contraction factor.  ``a_posteriori_bound``
    is ``q * last_step / (1 - q)`` with ``q = q_bielecki``: a rigorous
    distance bound from the final iterate to the fixed point in the
    weighted norm (rigorous when the run is certified).  ``certified`` is
    true when the contraction certificate held and the iteration
    converged.
    """

    converged: bool
    certified: bool
    iterations: int
    step_norms: tuple[float, ...]
    ratio_estimates: tuple[float, ...]
    a_posteriori_bound: float
    contraction: ContractionReport
    z: GridFunction = field(repr=False)
    x: GridFunction = field(repr=False)


@dataclass(frozen=True)
class Residuals:
    """Two independent defect measures for a candidate solution pair.

    ``algebraic`` scores ``z`` against the fixed-point equation itself:
    node ``k`` holds ``z_k - f(t_k, x_k, z_k)``.  ``caputo`` rebuilds the
    derivative from ``x`` by the L1 stencil and scores that instead:
    node ``k`` holds ``Dx_k - f(t_k, x_k, Dx_k)``.  The second check
    never touches the integral weights the solver used, so agreement of
    both is evidence against a common discretisation bug.  Node 0 of the
    Caputo residual inherits the L1 stencil's node-0 convention and is
    excluded from scoring.
    """

    algebraic: GridFunction = field(repr=False)
    caputo: GridFunction = field(repr=False)


def pointwise(
    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Lift a per-node callable to the block contract of ``ProblemSpec.rhs``.

    ``f(t, x, y)`` receives one node at a time, a float time and
    length-``d`` state and derivative vectors, and returns a scalar or a
    length-``d`` vector::

        spec = ProblemSpec(..., rhs=pointwise(lambda t, x, y: np.array([math.cos(t)])))

    The lifted callback makes one Python call per node; where speed
    matters, write the right-hand side with numpy operations instead.
    """

    def rhs(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        rows = [f(float(s), xk, yk) for s, xk, yk in zip(t[:, 0], x, y)]
        return np.stack([np.atleast_1d(np.asarray(row, dtype=float)) for row in rows])

    return rhs


def _eval_grid(spec: ProblemSpec, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``spec.rhs`` on a block of nodes, checked for shape and finiteness.

    ``t`` has shape ``(m, 1)`` and ``x``, ``y`` shape ``(m, d)``; the
    result has shape ``(m, d)``.  A non-finite row raises
    :class:`RhsEvaluationError` naming the first such node.
    """
    value = np.asarray(spec.rhs(t, x, y), dtype=float)
    if value.shape != x.shape:
        raise RhsEvaluationError(
            f"rhs returned shape {value.shape} for {x.shape[0]} nodes, expected {x.shape}"
        )
    finite = np.isfinite(value).all(axis=1)
    if not finite.all():
        node = int(np.argmin(finite))
        raise RhsEvaluationError(
            f"rhs returned a non-finite value at node {node} (t={t[node, 0]:g})"
        )
    return value


def resolve_theta(M2: float, M3: float, override: float | None = None) -> tuple[float, float]:
    """Weight scale ``theta`` for the step norm and its factor ``M2 / theta + M3``.

    Without an override the scale is ``max(1, 2 * M2 / (1 - M3))``.  This
    puts the weighted contraction factor at or below ``(1 + M3) / 2``,
    bounded away from one, while keeping the weights at least one so that
    weighted norms never exceed plain supremum norms.  An override is
    used as given.

    Returns:
        ``(theta, q)`` with ``q = M2 / theta + M3``.

    Raises:
        DomainError: if the override is not positive, or leaves ``q >= 1``.
    """
    if override is None:
        theta = max(1.0, 2.0 * M2 / (1.0 - M3))
    elif not (override > 0.0):
        raise DomainError(f"theta must be > 0, got {override}")
    else:
        theta = override
    q = M2 / theta + M3
    if q >= 1.0:
        raise DomainError(
            f"theta = {theta:g} gives weighted factor {q:g} >= 1; "
            f"need theta > {M2 / (1.0 - M3):g}"
        )
    return theta, q


def check_contraction(spec: ProblemSpec, n: int) -> ContractionReport:
    """Evaluate the contraction certificate for a problem.

    Samples ``f(t, 0, 0)`` on an ``n``-step grid to bound ``K``, computes
    both contraction factors, and derives the iterate bounds ``R`` and
    ``L`` when the certificate holds.  A failed certificate is reported,
    not raised; callers decide whether to proceed.

    Args:
        spec: the problem.
        n: grid resolution used for the ``K`` sample.

    Returns:
        A :class:`ContractionReport`.
    """
    grid = UniformGrid(spec.T, n)
    zero = np.zeros((n + 1, spec.dim))
    sup = float(np.max(np.linalg.norm(_eval_grid(spec, grid.nodes()[:, None], zero, zero), axis=1)))
    K = _K_SAFETY * sup

    q_global = spec.M2 * spec.T**spec.alpha / math.gamma(spec.alpha + 1.0) + spec.M3
    ok = q_global < 1.0
    theta, q_bielecki = resolve_theta(spec.M2, spec.M3)

    R = L = None
    if ok:
        R = (spec.M2 * float(np.linalg.norm(spec.x0)) + K) / (1.0 - q_global)
        L = (spec.M1 + 2.0 * spec.M2 * R / math.gamma(spec.alpha + 1.0)) / (1.0 - spec.M3)
    return ContractionReport(
        q_global=q_global,
        contraction_ok=ok,
        K=K,
        theta=theta,
        q_bielecki=q_bielecki,
        R=R,
        L=L,
    )


def _ml_weights(times: np.ndarray, alpha: float, theta: float) -> np.ndarray:
    """Weights ``E_alpha(theta * t**alpha)`` at each of ``times``.

    The values are bitwise those of :func:`mittag_leffler` at
    ``theta * t**alpha`` time by time, and the first time the series
    cannot evaluate raises its error.
    """
    # Each argument is formed time by time with Python's scalar power, so
    # the weights stay bitwise equal to the per-node scalar series and the
    # CSVs byte-identical; numpy's array power can differ in the last bit.
    args = np.array([theta * t**alpha for t in times.tolist()])
    return mittag_leffler_array(alpha, args, strict=True)


@functools.lru_cache(maxsize=32)
def _weight_vector(grid: UniformGrid, alpha: float, theta: float) -> np.ndarray:
    """Norm weights :func:`_ml_weights` on ``grid``'s nodes, built once per key.

    Every norm on one grid with one ``(alpha, theta)`` shares the same
    read-only array, so a solve and all distances measured after it pay
    for the Mittag-Leffler series once.
    """
    if theta <= 0.0:
        raise DomainError(f"norm weights require theta > 0, got {theta}")
    wt = _ml_weights(grid.nodes(), alpha, theta)
    wt.flags.writeable = False
    return wt


def bielecki_norm(z: GridFunction, alpha: float, theta: float) -> float:
    """Weighted supremum norm ``max_k |z_k| / E_alpha(theta * t_k**alpha)``.

    Dividing by a Mittag-Leffler weight is what turns the fixed-point map
    into a contraction uniformly in ``T``; all step norms and distances
    in this package are measured this way.  Vector magnitudes are
    Euclidean.  The weight at ``t = 0`` is one, so the norm is always at
    least ``|z_0|`` and at most the plain supremum norm.
    """
    wt = _weight_vector(z.grid, alpha, theta)
    mags = np.linalg.norm(z.values, axis=1)
    return float(np.max(mags / wt))


def picard_step(spec: ProblemSpec, weights: FracWeights, z: GridFunction) -> GridFunction:
    """One application of the fixed-point map to a derivative iterate.

    Node ``k`` of the result is ``f(t_k, x0 + (I^alpha z)_k, z_k)``.  The
    fixed points of this map are exactly the grid solutions of the
    implicit problem.

    Args:
        spec: the problem.
        weights: integral weights on ``z``'s grid (order ``spec.alpha``).
        z: current derivative iterate with ``z.dim == spec.dim``.

    Returns:
        The next iterate, on the same grid.

    Raises:
        RhsEvaluationError: if the callback returns a non-finite value,
            identifying the node.
    """
    if z.dim != spec.dim:
        raise DomainError(f"z has dimension {z.dim}, problem has {spec.dim}")
    ix = frac_integral(weights, z)
    out = _eval_grid(spec, z.grid.nodes()[:, None], spec.x0 + ix.values, z.values)
    return GridFunction(z.grid, out)


def reconstruct_x(spec: ProblemSpec, weights: FracWeights, z: GridFunction) -> GridFunction:
    """Recover the state ``x = x0 + I^alpha z`` from a derivative iterate.

    Node 0 equals ``x0`` exactly (row 0 of the weights is zero).
    """
    ix = frac_integral(weights, z)
    return GridFunction(z.grid, spec.x0[None, :] + ix.values)


def _certified_report(spec: ProblemSpec, config: SolverConfig) -> ContractionReport:
    """The contraction certificate under ``config``'s weight scale.

    The scale is resolved before the certificate samples the right-hand
    side, so a bad ``theta_override`` is reported first.

    Raises:
        DomainError: if ``theta_override`` breaks the weighted contraction.
        ContractionError: if the certificate fails and ``config.force`` is
            not set.
    """
    theta, q_b = resolve_theta(spec.M2, spec.M3, config.theta_override)
    report = replace(check_contraction(spec, config.n), theta=theta, q_bielecki=q_b)
    if not report.contraction_ok and not config.force:
        raise ContractionError(
            f"contraction factor q={report.q_global:g} is not below 1; "
            "shrink T or the Lipschitz constants, or set force to iterate anyway"
        )
    return report


def _iterate(
    spec: ProblemSpec,
    weights: FracWeights,
    wt: np.ndarray,
    z: GridFunction,
    config: SolverConfig,
    member: int | None = None,
) -> tuple[GridFunction, list[float], bool]:
    """Apply :func:`picard_step` from ``z`` until a step is at most ``config.tol``.

    Each step is measured as ``max_k |dz_k| / wt_k``, at most
    ``config.max_iter`` times.  For family member ``member`` node 0 is
    pinned to the anchor ``spec.x0``: it is restored exactly after every
    step, and a drift above ``_DRIFT_TOL`` means the time-zero identity
    fails there.

    Returns:
        ``(z, step_norms, converged)``, ``z`` being the last iterate.

    Raises:
        AnchorConditionError: if node 0 of member ``member`` drifts.
    """
    step_norms: list[float] = []
    for _ in range(config.max_iter):
        z_next = picard_step(spec, weights, z)
        if member is not None:
            values = np.array(z_next.values)
            drift = float(np.linalg.norm(values[0] - spec.x0))
            if drift > _DRIFT_TOL:
                raise AnchorConditionError(
                    f"member {member}: node 0 drifted by {drift:.3e} in one step; "
                    "the time-zero identity does not hold at this anchor",
                    worst_violation=drift,
                )
            values[0] = spec.x0  # exact restoration
            z_next = GridFunction(z.grid, values)
        step = float(np.max(np.linalg.norm(z_next.values - z.values, axis=1) / wt))
        step_norms.append(step)
        z = z_next
        if step <= config.tol:
            return z, step_norms, True
    return z, step_norms, False


def solve(spec: ProblemSpec, config: SolverConfig) -> SolveReport:
    """Run Picard iteration to the fixed point of the derivative map.

    Starts from ``config.initial_guess`` (default: the constant
    ``f(0, x0, 0)``), applies :func:`picard_step` until the weighted step
    norm falls to ``config.tol`` or the budget runs out, then
    reconstructs the state.  Convergence is geometric with observed ratio
    near or below ``q_bielecki``.

    Args:
        spec: the problem.
        config: iteration controls.

    Returns:
        A :class:`SolveReport`.  A run that exhausts ``max_iter`` is
        reported with ``converged=False``, not raised.

    Raises:
        ContractionError: if the contraction certificate fails and
            ``config.force`` is not set.
        DomainError: if ``theta_override`` breaks the weighted
            contraction, or the initial guess is on the wrong grid.
    """
    report = _certified_report(spec, config)
    grid = UniformGrid(spec.T, config.n)
    weights = build_weights(spec.alpha, grid)
    wt = _weight_vector(grid, spec.alpha, report.theta)

    if config.initial_guess is not None:
        z = config.initial_guess
        if z.grid != grid:
            raise DomainError(
                f"initial guess lives on (T={z.grid.T}, n={z.grid.n}), "
                f"solve grid is (T={grid.T}, n={grid.n})"
            )
        if z.dim != spec.dim:
            raise DomainError(f"initial guess has dimension {z.dim}, problem has {spec.dim}")
    else:
        z0 = _eval_grid(spec, np.zeros((1, 1)), spec.x0[None, :], np.zeros((1, spec.dim)))
        z = GridFunction.constant(grid, z0[0])

    z, step_norms, converged = _iterate(spec, weights, wt, z, config)
    q = report.q_bielecki
    return SolveReport(
        converged=converged,
        certified=report.contraction_ok and converged,
        iterations=len(step_norms),
        step_norms=tuple(step_norms),
        ratio_estimates=tuple(b / a for a, b in zip(step_norms, step_norms[1:]) if a > 0.0),
        a_posteriori_bound=q * step_norms[-1] / (1.0 - q),
        contraction=report,
        z=z,
        x=reconstruct_x(spec, weights, z),
    )


def residual_caputo(spec: ProblemSpec, x: GridFunction, z: GridFunction) -> Residuals:
    """Score a candidate solution pair against the original equation.

    Args:
        spec: the problem.
        x: candidate state samples.
        z: candidate derivative samples on the same grid.

    Returns:
        A :class:`Residuals` pair; see its docstring for the node-wise
        definitions.  Scoring should skip node 0 of the ``caputo`` part.
    """
    x.require_same_grid(z)
    if x.dim != spec.dim:
        raise DomainError(f"x has dimension {x.dim}, problem has {spec.dim}")
    t = x.grid.nodes()[:, None]
    dx = caputo_l1(spec.alpha, x)
    alg = z.values - _eval_grid(spec, t, x.values, z.values)
    cap = dx.values - _eval_grid(spec, t, x.values, dx.values)
    return Residuals(
        algebraic=GridFunction(x.grid, alg),
        caputo=GridFunction(x.grid, cap),
    )
