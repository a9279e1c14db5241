"""Distance bounds between solutions of perturbed problems.

How far apart are the solutions of two nearby problems?  If the two
right-hand sides differ by at most a constant everywhere, the two fixed
points differ by an explicit amount in the weighted norm, with no need
to solve anything.  This module computes those a priori bounds, the
measured distances to compare them against, and the set-valued analogue:
families of solutions selected by anchoring the derivative value at
``t = 0``, compared in Pompeiu-Hausdorff distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AnchorConditionError, DomainError, IterationError
# frac_integral is not called here.  It stays importable from this module
# because the tracer self-test in perfbench/ checks that a function imported
# into two modules is wrapped in both, using this module as the second.
from .fracops import build_weights, frac_integral  # noqa: F401
from .grid import GridFunction, UniformGrid
from .sampling import halton_points
from .solver import (
    ProblemSpec,
    SolverConfig,
    _certified_report,
    _eval_grid,
    _iterate,
    _ml_weights,
    _weight_vector,
    bielecki_norm,
    check_contraction,
    reconstruct_x,
    resolve_theta,
)

__all__ = [
    "ProblemPair",
    "SolutionFamily",
    "AnchorCheck",
    "dependence_bound",
    "measured_distance",
    "hausdorff_distance",
    "check_anchor_condition",
    "solve_family",
    "family_hausdorff_bound",
    "estimate_eta_sup",
    "estimate_ml_gap",
]

# Tolerance for f(0, a, a) = a; anything larger disqualifies anchoring.
_ANCHOR_TOL = 1e-10

# Safety factor applied to sampled suprema.
_SAMPLE_SAFETY = 1.1


@dataclass(frozen=True)
class ProblemPair:
    """Two problems on the same interval, with gap constants.

    ``k_eta`` bounds the pointwise gap ``|f - g|`` over the time interval
    and the state ball (the constant the plain dependence bound needs).
    ``k_ml`` bounds the gap relative to the norm weight,
    ``|f - g| <= k_ml * E_alpha(theta * t**alpha)``, which is what the
    family bound needs.  Either may be supplied by the caller or sampled
    with :func:`estimate_eta_sup` / :func:`estimate_ml_gap`.
    """

    spec_f: ProblemSpec
    spec_g: ProblemSpec
    k_eta: float = 0.0
    k_ml: float = 0.0

    def __post_init__(self):
        if self.spec_f.alpha != self.spec_g.alpha:
            raise DomainError(
                f"orders differ: {self.spec_f.alpha} vs {self.spec_g.alpha}"
            )
        if self.spec_f.T != self.spec_g.T:
            raise DomainError(f"intervals differ: {self.spec_f.T} vs {self.spec_g.T}")
        if self.spec_f.dim != self.spec_g.dim:
            raise DomainError(
                f"dimensions differ: {self.spec_f.dim} vs {self.spec_g.dim}"
            )
        if self.k_eta < 0.0 or self.k_ml < 0.0:
            raise DomainError("gap constants must be nonnegative")

    def worst_constants(self) -> tuple[float, float]:
        """Max of the two problems' (M2, M3); the bounds use these."""
        return (
            max(self.spec_f.M2, self.spec_g.M2),
            max(self.spec_f.M3, self.spec_g.M3),
        )


@dataclass(frozen=True)
class SolutionFamily:
    """Solutions of one problem indexed by the anchor value ``z(0) = a``.

    ``solutions[i]`` is the ``(z, x)`` pair grown from ``anchors[i]``;
    each member's ``z`` has node 0 exactly equal to its anchor.
    """

    anchors: tuple[np.ndarray, ...]
    solutions: tuple[tuple[GridFunction, GridFunction], ...] = field(repr=False)

    def __post_init__(self):
        if len(self.anchors) != len(self.solutions):
            raise DomainError("one solution pair required per anchor")


class AnchorCheck(NamedTuple):
    """Result of sampling the anchoring identity ``f(0, x, x) = x``."""

    ok: bool
    worst_violation: float


def dependence_bound(pair: ProblemPair, theta: float) -> float:
    """A priori distance bound between the two problems' solutions.

    In the weighted norm with scale ``theta``, the fixed points satisfy

        distance <= |x0_f - x0_g| + k_eta / (theta * (1 - (M2/theta + M3)))

    with the worse of the two problems' Lipschitz constants.  No solving
    is involved.

    Args:
        pair: the two problems plus the gap constant ``k_eta``.
        theta: weight scale; must keep the weighted factor below one.

    Returns:
        The bound (finite, nonnegative).
    """
    _, q = resolve_theta(*pair.worst_constants(), theta)
    dx0 = float(np.linalg.norm(pair.spec_f.x0 - pair.spec_g.x0))
    return dx0 + pair.k_eta / (theta * (1.0 - q))


def measured_distance(xf: GridFunction, xg: GridFunction, alpha: float, theta: float) -> float:
    """Weighted-norm distance between two grid functions on one grid."""
    xf.require_same_grid(xg)
    return bielecki_norm(xf - xg, alpha, theta)


def hausdorff_distance(
    A: Sequence[GridFunction], B: Sequence[GridFunction], alpha: float, theta: float
) -> float:
    """Pompeiu-Hausdorff distance between two finite sets of grid functions.

    ``max(sup_a inf_b d(a, b), sup_b inf_a d(a, b))`` with ``d`` the
    weighted-norm distance, evaluated exactly by the double loop over the
    finite sets.

    Args:
        A: nonempty set of grid functions, all on one grid.
        B: nonempty set on the same grid.
        alpha: weight order.
        theta: weight scale.

    Returns:
        The distance; zero iff the sets are equal as point sets.
    """
    if len(A) == 0 or len(B) == 0:
        raise DomainError("hausdorff_distance requires nonempty sets")
    d = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            d[i, j] = measured_distance(a, b, alpha, theta)
    forward = float(np.max(np.min(d, axis=1)))
    backward = float(np.max(np.min(d, axis=0)))
    return max(forward, backward)


def check_anchor_condition(spec: ProblemSpec, R: float, samples: int) -> AnchorCheck:
    """Sample whether ``f(0, x, x) = x`` holds on the radius-``R`` box.

    Anchored families exist only when the time-zero slice of the
    right-hand side is the identity on the diagonal; this samples the
    identity at deterministic low-discrepancy points.

    Args:
        spec: the problem.
        R: box radius, ``> 0``; points are drawn from ``[-R, R]**d``.
        samples: number of sample points, ``>= 1``.

    Returns:
        ``AnchorCheck(ok, worst_violation)`` where ``ok`` means the worst
        sampled violation is at most ``1e-10``.
    """
    if R <= 0.0:
        raise DomainError(f"R must be > 0, got {R}")
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    pts = (2.0 * halton_points(samples, spec.dim) - 1.0) * R
    value = _eval_grid(spec, np.zeros((samples, 1)), pts, pts)
    worst = float(np.max(np.linalg.norm(value - pts, axis=1)))
    return AnchorCheck(ok=worst <= _ANCHOR_TOL, worst_violation=worst)


def _family_radius(spec: ProblemSpec, anchors: Sequence[np.ndarray], K: float, q_global: float) -> float:
    biggest = max(float(np.linalg.norm(a)) for a in anchors)
    if q_global < 1.0:
        return max(1.0, (spec.M2 * biggest + K) / (1.0 - q_global))
    return max(1.0, biggest)


def solve_family(
    spec: ProblemSpec, anchors: Sequence, config: SolverConfig
) -> SolutionFamily:
    """Solve one problem once per anchor value of the derivative at zero.

    When ``f(0, x, x) = x``, the fixed-point map preserves the slice of
    iterates with ``z(0) = a`` for every ``a``, and each slice contains
    exactly one solution.  For each anchor this runs Picard iteration
    with the map ``z -> f(t, z(0) + I^alpha z, z(t))``, starting from the
    constant ``a``, restoring node 0 to ``a`` exactly after every step
    (drift beyond 1e-12 is an error), and reconstructs the state as
    ``x = z(0) + I^alpha z``.  Members run one after another through the
    same Picard loop as :func:`solve`, each on the problem with ``x0``
    replaced by its anchor, and share one set of weights.

    Args:
        spec: the problem; its ``x0`` is ignored (anchors replace it).
        anchors: one scalar or length-``d`` vector per family member.
        config: iteration controls shared by all members.

    Returns:
        A :class:`SolutionFamily` in anchor order.

    Raises:
        AnchorConditionError: if the sampled time-zero identity fails, or
            node 0 drifts during iteration.
        ContractionError: if the contraction certificate fails and
            ``config.force`` is not set.
        DomainError: if ``theta_override`` breaks the weighted contraction.
        IterationError: if any member exhausts ``config.max_iter``.
    """
    if len(anchors) == 0:
        raise DomainError("at least one anchor is required")
    anchor_vecs = []
    for a in anchors:
        v = np.atleast_1d(np.asarray(a, dtype=float))
        if v.shape != (spec.dim,) or not np.all(np.isfinite(v)):
            raise DomainError(f"anchor {a!r} is not a finite vector of dimension {spec.dim}")
        v.flags.writeable = False
        anchor_vecs.append(v)

    report = _certified_report(spec, config)
    radius = _family_radius(spec, anchor_vecs, report.K, report.q_global)
    check = check_anchor_condition(spec, radius, samples=256)
    if not check.ok:
        raise AnchorConditionError(
            f"f(0, x, x) = x fails on the radius-{radius:g} box: "
            f"worst violation {check.worst_violation:.3e}",
            worst_violation=check.worst_violation,
        )

    grid = UniformGrid(spec.T, config.n)
    weights = build_weights(spec.alpha, grid)
    wt = _weight_vector(grid, spec.alpha, report.theta)

    pairs = []
    for i, anchor in enumerate(anchor_vecs):
        member = replace(spec, x0=anchor)
        start = GridFunction.constant(grid, anchor)
        z, _, converged = _iterate(member, weights, wt, start, config, member=i)
        if not converged:
            raise IterationError(
                f"member {i} (anchor {np.array2string(anchor)}) did not reach "
                f"tol={config.tol:g} within {config.max_iter} iterations"
            )
        pairs.append((z, reconstruct_x(member, weights, z)))
    return SolutionFamily(anchors=tuple(anchor_vecs), solutions=tuple(pairs))


def family_hausdorff_bound(pair: ProblemPair, theta: float) -> float:
    """A priori Hausdorff bound between two anchored solution families.

    When both problems admit anchored families and their right-hand
    sides differ by at most ``k_ml * E_alpha(theta * t**alpha)``, the
    families (as sets, in the weighted metric) are within

        k_ml * T**alpha / (Gamma(alpha + 1) * (1 - (M2/theta + M3)))

    of each other, with the worse constants of the pair.

    Args:
        pair: the two problems plus ``k_ml``.
        theta: weight scale; must keep the weighted factor below one.

    Returns:
        The bound.

    Raises:
        DomainError: if ``theta`` is too small.
        AnchorConditionError: if either problem fails the sampled
            time-zero identity.
    """
    _, q = resolve_theta(*pair.worst_constants(), theta)
    for label, spec in (("first", pair.spec_f), ("second", pair.spec_g)):
        rep = check_contraction(spec, n=64)
        radius = rep.R if rep.R is not None else 1.0
        check = check_anchor_condition(spec, max(1.0, radius), samples=128)
        if not check.ok:
            raise AnchorConditionError(
                f"{label} problem fails f(0, x, x) = x: "
                f"worst violation {check.worst_violation:.3e}",
                worst_violation=check.worst_violation,
            )
    alpha = pair.spec_f.alpha
    T = pair.spec_f.T
    return pair.k_ml * T**alpha / (math.gamma(alpha + 1.0) * (1.0 - q))


def _sampled_gaps(
    spec_f: ProblemSpec, spec_g: ProblemSpec, radius: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and gap magnitudes ``|f - g|`` for the gap estimators."""
    if radius <= 0.0:
        raise DomainError(f"radius must be > 0, got {radius}")
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    d = spec_f.dim
    pts = halton_points(samples, 1 + 2 * d)
    t = pts[:, :1] * spec_f.T
    x = (2.0 * pts[:, 1 : 1 + d] - 1.0) * radius
    y = (2.0 * pts[:, 1 + d :] - 1.0) * radius
    gap = _eval_grid(spec_f, t, x, y) - _eval_grid(spec_g, t, x, y)
    return t[:, 0], np.linalg.norm(gap, axis=1)


def estimate_eta_sup(
    spec_f: ProblemSpec, spec_g: ProblemSpec, radius: float, samples: int = 512
) -> float:
    """Sampled bound on ``sup |f - g|`` over times and the radius box.

    Low-discrepancy samples of ``(t, x, y)`` in
    ``[0, T] x [-radius, radius]**d x [-radius, radius]**d``, maximum gap
    scaled by a 1.1 safety factor.  An estimate, not a certificate; report
    it as such.

    Args:
        spec_f: first problem.
        spec_g: second problem on the same interval.
        radius: state box radius, ``> 0``.
        samples: number of sample triples, ``>= 1``.

    Returns:
        ``1.1 * max |f - g|`` over the samples.
    """
    _, gaps = _sampled_gaps(spec_f, spec_g, radius, samples)
    return _SAMPLE_SAFETY * float(np.max(gaps))


def estimate_ml_gap(
    spec_f: ProblemSpec,
    spec_g: ProblemSpec,
    theta: float,
    radius: float,
    samples: int = 512,
) -> float:
    """Sampled constant ``k`` with ``|f - g| <= k * E_alpha(theta * t**alpha)``.

    Same sampling as :func:`estimate_eta_sup` with each gap divided by
    the weight at its sample time, scaled by the 1.1 safety factor.
    """
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    times, gaps = _sampled_gaps(spec_f, spec_g, radius, samples)
    weights = _ml_weights(times, spec_f.alpha, theta)
    return _SAMPLE_SAFETY * float(np.max(gaps / weights))
