"""Special functions used by the solver: the one-parameter Mittag-Leffler function.

The Mittag-Leffler function is the scale against which all convergence
control in this package is measured: the weighted norm that makes the
fixed-point map a contraction divides by ``E_alpha(theta * t**alpha)``.
Evaluation sticks to the regime those weights live in (moderate positive
arguments, ``alpha`` in ``(0, 1]``), where the defining power series with
compensated summation is accurate and cheap.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, SeriesConvergenceError

__all__ = ["mittag_leffler", "mittag_leffler_array"]

# Series termination requires this many consecutive below-tolerance terms,
# guarding against a term that dips early while the tail is still growing.
_QUIET_TERMS = 3

# Truncation policy: a term is negligible once its magnitude falls below
# _REL_TOL times the partial sum; the series gives up after _MAX_TERMS terms.
_REL_TOL = 1e-14
_MAX_TERMS = 400


@functools.lru_cache(maxsize=32)
def _term_ratios(alpha: float, count: int) -> tuple[float, ...]:
    """``Gamma(alpha*k + 1) / Gamma(alpha*k + alpha + 1)`` for ``k < count``.

    Series term ``k + 1`` is term ``k`` times ``z`` times entry ``k``.
    """
    return tuple(
        math.exp(math.lgamma(alpha * k + 1.0) - math.lgamma(alpha * k + alpha + 1.0))
        for k in range(count)
    )


def _series_step(total, comp, term, z, ratio):
    """Add ``term`` to the Kahan sum ``(total, comp)`` and form the next term.

    Works elementwise on floats and on arrays alike, so the scalar and the
    array series round identically.
    """
    y = term - comp
    t = total + y
    return t, (t - total) - y, term * (z * ratio)


def _negligible(term, total):
    """Whether the next term is below the tail tolerance, elementwise."""
    return abs(term) < _REL_TOL * abs(total)


def _series_error(alpha: float, z: float) -> Exception:
    """The error for an argument whose series cannot be evaluated."""
    if not (-5.0 <= z <= 200.0):
        return DomainError(f"mittag_leffler requires z in [-5, 200], got {z}")
    return SeriesConvergenceError(
        f"Mittag-Leffler series for alpha={alpha}, z={z} did not settle "
        f"within {_MAX_TERMS} terms"
    )


def _check_order(alpha: float) -> float:
    """``alpha`` as a float, checked to lie in ``(0, 1]``."""
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    return alpha


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function ``E_alpha(z)``.

    Sums ``sum_k z**k / Gamma(alpha*k + 1)`` with Kahan-compensated
    accumulation.  Successive terms are generated by the running ratio
    ``term * z * exp(lgamma(alpha*k + 1) - lgamma(alpha*k + alpha + 1))``,
    which avoids forming huge powers and Gamma values separately.  The sum
    stops once ``_QUIET_TERMS`` consecutive terms are negligible, within a
    fixed budget of 400 terms.
    :func:`mittag_leffler_array` runs the same steps elementwise.

    Args:
        alpha: order, in ``(0, 1]``.  ``alpha = 1`` reproduces ``exp``.
        z: argument, restricted to ``[-5, 200]``.  Within that window the
            series converges at working precision for the weight arguments
            this package produces; far outside it the truncated series is
            no longer trustworthy.

    Returns:
        ``E_alpha(z)``.

    Raises:
        DomainError: if ``alpha`` or ``z`` is outside the stated domain.
        SeriesConvergenceError: if 400 terms do not reach the
            tolerance (possible for small ``alpha`` with large ``z``).
    """
    alpha = _check_order(alpha)
    z = float(z)
    if -5.0 <= z <= 200.0:
        total, comp, term = 0.0, 0.0, 1.0  # term is z**k / Gamma(alpha*k + 1)
        quiet = 0
        for ratio in _term_ratios(alpha, _MAX_TERMS):
            total, comp, term = _series_step(total, comp, term, z, ratio)
            quiet = quiet + 1 if _negligible(term, total) else 0
            if quiet >= _QUIET_TERMS:
                return total
    raise _series_error(alpha, z)


def mittag_leffler_array(alpha: float, z: np.ndarray, *, strict: bool = False) -> np.ndarray:
    """``E_alpha`` at every element of ``z``, bitwise equal to :func:`mittag_leffler`.

    Runs the scalar function's steps elementwise, with a per-element quiet
    counter that freezes each element at the term where the scalar series
    returns.  An element fails where the scalar function raises: outside
    ``[-5, 200]`` (NaN included), or a series that does not settle within
    the 400-term budget.  Failed elements are NaN; with ``strict`` the
    first of them in C order raises the scalar function's error instead.

    Args:
        alpha: order, in ``(0, 1]``.
        z: arguments, any shape.
        strict: raise for a failed element instead of returning NaN.

    Returns:
        A new float array of the shape of ``z``.

    Raises:
        DomainError: if ``alpha`` is outside ``(0, 1]``, or with ``strict``
            if an element is outside ``[-5, 200]``.
        SeriesConvergenceError: with ``strict``, if an element's series
            does not settle.
    """
    alpha = _check_order(alpha)
    z = np.asarray(z, dtype=float)
    out = np.full(z.shape, np.nan)
    flat = out.reshape(-1)
    # Positions still summing, and their running state.
    live = np.flatnonzero((z >= -5.0) & (z <= 200.0))
    zl = z.reshape(-1)[live]
    total = np.zeros(live.size)
    comp = np.zeros(live.size)
    term = np.ones(live.size)
    quiet = np.zeros(live.size, dtype=int)
    # Overflow leaves inf and NaN in the state, as in the scalar series;
    # such elements never settle and stay NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for ratio in _term_ratios(alpha, _MAX_TERMS):
            if live.size == 0:
                break
            total, comp, term = _series_step(total, comp, term, zl, ratio)
            quiet = np.where(_negligible(term, total), quiet + 1, 0)
            done = quiet >= _QUIET_TERMS
            if done.any():
                flat[live[done]] = total[done]
                keep = ~done
                live, zl, total, comp, term, quiet = (
                    a[keep] for a in (live, zl, total, comp, term, quiet)
                )
    if strict:
        failed = np.flatnonzero(np.isnan(flat))
        if failed.size:
            raise _series_error(alpha, float(z.reshape(-1)[failed[0]]))
    return out

