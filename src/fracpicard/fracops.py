"""Discrete fractional calculus on uniform grids.

Two operators live here: the Riemann-Liouville fractional integral,
discretised by product-trapezoidal quadrature (exact on piecewise-linear
integrands, which is what grid functions are), and the L1 backward
approximation of the Caputo derivative, used to verify solutions after
the fact.  The solver itself never differentiates; it only integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .grid import GridFunction, UniformGrid

__all__ = ["FracWeights", "build_weights", "frac_integral", "caputo_l1"]


# Nodes per block whose mutual terms are summed directly; terms between
# blocks go through FFTs of doubling size (see _causal_convolve).  Grids
# of up to this many steps need no FFT at all.  One apply to one
# component on a 2-core x86-64 VM (numpy 2.4), for blocks of 64 / 256:
# 88 / 47 us at n = 256, 217 / 209 us at 1024, 675 / 800 us at 4096 and
# 1.27 / 1.66 ms at 8192.  Small grids win: a family solve makes about a
# thousand applies at n = 256, a single large solve a few dozen.
_NEAR = 256


@dataclass(frozen=True, eq=False)
class FracWeights:
    """Product-trapezoid weights for the fractional integral on one grid, in O(n).

    The weight matrix ``W`` is lower triangular, ``(n + 1, n + 1)``; row
    ``k`` integrates a piecewise-linear interpolant from ``0`` to ``t_k``
    against the kernel ``(t_k - s)**(alpha - 1) / Gamma(alpha)``, and row 0
    is identically zero.  Off column 0 an entry depends only on ``k - j``,
    so ``W`` is held as two read-only vectors:

    * ``kernel``, length ``n``: ``W[k, j] = kernel[k - j]`` for ``1 <= j <= k``;
    * ``column0``, length ``n + 1``: ``W[k, 0] = column0[k]``.

    :func:`frac_integral` applies ``W`` as a causal convolution with the
    :class:`_ConvolutionPlan` that :meth:`plan` builds on first use.  That
    cache is filled without a lock: threads that fill it at once build
    equal plans, and either is kept.
    """

    alpha: float
    grid: UniformGrid
    kernel: np.ndarray = field(repr=False)
    column0: np.ndarray = field(repr=False)
    _plan: _ConvolutionPlan | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.kernel.flags.writeable = False
        self.column0.flags.writeable = False

    def to_dense(self) -> np.ndarray:
        """A new ``(n + 1, n + 1)`` array holding ``W``; O(n**2), for inspection."""
        n = self.grid.n
        w = np.zeros((n + 1, n + 1))
        w[:, 0] = self.column0
        w[1:, 1:] = _toeplitz(self.kernel, n)
        return w

    def plan(self) -> _ConvolutionPlan:
        """The kernel's convolution plan, built on first call."""
        if self._plan is None:
            object.__setattr__(self, "_plan", _ConvolutionPlan.build(self.kernel))
        return self._plan


def _toeplitz(kernel: np.ndarray, m: int) -> np.ndarray:
    """The ``(m, m)`` lower-triangular matrix with ``kernel[i - j]`` at ``(i, j)``; zero past the kernel's end."""
    # Row i is padded[i : i + m] reversed, with kernel[:m] after m - 1 zeros.
    padded = np.zeros(2 * m - 1)
    padded[m - 1 : m - 1 + min(m, kernel.shape[0])] = kernel[:m]
    return np.ascontiguousarray(sliding_window_view(padded, m)[:, ::-1])


@dataclass(frozen=True)
class _ConvolutionPlan:
    """What :func:`_causal_convolve` needs of one kernel: O(len(kernel)) values.

    ``near`` is ``_toeplitz(kernel, _NEAR)``; ``spectra`` holds
    ``rfft(kernel[:2b], 2b)`` for ``b = _NEAR, 2*_NEAR, ...`` while
    ``b < len(kernel)``.
    """

    near: np.ndarray
    spectra: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, kernel: np.ndarray) -> _ConvolutionPlan:
        spectra = []
        b = _NEAR
        while b < kernel.shape[0]:
            spectra.append(np.fft.rfft(kernel[: 2 * b], 2 * b))
            b *= 2
        plan = cls(near=_toeplitz(kernel, _NEAR), spectra=tuple(spectra))
        for a in (plan.near, *plan.spectra):
            a.flags.writeable = False
        return plan


def _causal_convolve(plan: _ConvolutionPlan, v: np.ndarray) -> np.ndarray:
    """``out[k] = sum_{i<=k} kernel[i] * v[k - i]`` along axis 0 of ``v``, shape ``(m, d)``.

    ``plan`` is built from a kernel of at least ``m`` entries.  After
    Hairer, Lubich & Schlichte (1985), the nodes are cut into blocks of
    ``_NEAR`` and the sum inside each block is taken term by term.  Then,
    for ``b = _NEAR, 2*_NEAR, ...``, each even-numbered block of ``b``
    nodes reaches the block of ``b`` nodes after it through one FFT product
    of size ``2b``, which covers lags ``1 .. 2b-1`` without wrap-around.
    So ``out[k]`` is built from ``v`` at or before ``k`` only, and its
    rounding error is relative to those values, not to ``max |v|`` over
    the whole grid.  O(m * _NEAR + m log**2 m) time; no BLAS call, so the
    result does not depend on a BLAS thread count.
    """
    m, d = v.shape
    size = _NEAR << len(plan.spectra)  # the least _NEAR * 2**L >= m
    padded = np.zeros((d, size))
    padded[:, :m] = v.T
    out = np.empty((d, size))
    # einsum without ``optimize`` sums in its own loops, not through BLAS.
    np.einsum("ij,cbj->cbi", plan.near, padded.reshape(d, -1, _NEAR), out=out.reshape(d, -1, _NEAR))
    b = _NEAR
    for spec in plan.spectra:
        source = np.fft.rfft(padded.reshape(d, -1, 2, b)[:, :, 0], 2 * b)
        out.reshape(d, -1, 2, b)[:, :, 1] += np.fft.irfft(spec * source, 2 * b)[..., b:]
        b *= 2
    return out[:, :m].T


def build_weights(alpha: float, grid: UniformGrid) -> FracWeights:
    """Product-trapezoidal weights for order-``alpha`` fractional integration.

    On each panel ``[t_j, t_{j+1}]`` the integrand is replaced by its
    linear interpolant and the kernel moment is integrated exactly, which
    gives row ``k`` of ``W`` the closed form (with
    ``c = h**alpha / Gamma(alpha+2)`` and ``m = k - j``):

    * column 0: ``c * ((k-1)**(alpha+1) - (k-1-alpha) * k**alpha)``
    * columns 1..k-1: ``c * ((m+1)**(alpha+1) - 2*m**(alpha+1) + (m-1)**(alpha+1))``
    * column k: ``c``

    Every weight is positive and row ``k`` sums to
    ``t_k**alpha / Gamma(alpha + 1)``, the integral of the kernel itself.
    Only column 0 and the convolution kernel (``c`` followed by the
    interior values for ``m = 1..n-1``) are stored: O(n) time and memory.

    Args:
        alpha: integration order in ``(0, 1)``.
        grid: the uniform grid to build weights for.

    Returns:
        A ``FracWeights`` bundle for use with ``frac_integral``.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"build_weights requires alpha in (0, 1), got {alpha}")
    n = grid.n
    h = grid.h
    ap1 = alpha + 1.0
    c = h**alpha / math.gamma(alpha + 2.0)

    column0 = np.zeros(n + 1)
    k = np.arange(1, n + 1, dtype=float)
    # The panel [t_0, t_1] contributes a boundary moment.
    column0[1:] = c * ((k - 1.0) ** ap1 - (k - 1.0 - alpha) * k**alpha)
    kernel = np.empty(n)
    # Lag 0 is the newest node, which always carries weight c.
    kernel[0] = c
    m = np.arange(1, n, dtype=float)
    kernel[1:] = c * ((m + 1.0) ** ap1 - 2.0 * m**ap1 + (m - 1.0) ** ap1)
    return FracWeights(alpha=alpha, grid=grid, kernel=kernel, column0=column0)


def frac_integral(weights: FracWeights, z: GridFunction) -> GridFunction:
    """Apply the fractional integral to a grid function.

    Node ``k`` of the result approximates
    ``(1 / Gamma(alpha)) * integral_0^{t_k} (t_k - s)**(alpha-1) z(s) ds``
    by ``column0[k] * z_0 + sum_{j=1..k} kernel[k - j] * z_j``; node 0 is
    exactly zero.  The sum is a causal convolution (:func:`_causal_convolve`),
    O(n log**2 n) on every grid, and each node's rounding error is relative
    to the integrand at or before it.

    Args:
        weights: weights built on the same grid as ``z``.
        z: the integrand samples.

    Returns:
        The integral samples, on the same grid with the same dimension.
    """
    if weights.grid != z.grid:
        raise DomainError(
            f"weights were built for grid (T={weights.grid.T}, n={weights.grid.n}), "
            f"got values on (T={z.grid.T}, n={z.grid.n})"
        )
    out = np.empty_like(z.values)
    out[0] = 0.0
    out[1:] = _causal_convolve(weights.plan(), z.values[1:])
    out[1:] += weights.column0[1:, None] * z.values[0]
    return GridFunction(z.grid, out)


def caputo_l1(alpha: float, x: GridFunction) -> GridFunction:
    """L1 approximation of the Caputo derivative of order ``alpha``.

    Node ``k >= 1`` uses backward differences of ``x`` weighted by the
    exact kernel moments of each panel:

    ``(h**-alpha / Gamma(2-alpha)) * sum_j (x_{j+1} - x_j) *
    ((k-j)**(1-alpha) - (k-j-1)**(1-alpha))``

    The sum is a causal convolution in ``k - j``, evaluated as in
    :func:`frac_integral`.

    The derivative at node 0 is not defined by this stencil; the result
    copies node 1 there, and consumers that score residuals skip node 0.
    A constant ``x`` maps to exactly zero, and ``x(t) = t`` maps to
    ``t**(1-alpha) / Gamma(2-alpha)`` up to rounding.

    Args:
        alpha: derivative order in ``(0, 1)``.
        x: samples of the function to differentiate.

    Returns:
        Samples of the approximate Caputo derivative.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"caputo_l1 requires alpha in (0, 1), got {alpha}")
    n = x.grid.n
    h = x.grid.h
    scale = h**-alpha / math.gamma(2.0 - alpha)
    # coef[i] = (i+1)**(1-alpha) - i**(1-alpha); index i = k - j - 1.
    i = np.arange(0, n, dtype=float)
    coef = (i + 1.0) ** (1.0 - alpha) - i ** (1.0 - alpha)
    dx = np.diff(x.values, axis=0)  # shape (n, d)

    out = np.empty_like(x.values)
    out[1:] = scale * _causal_convolve(_ConvolutionPlan.build(coef), dx)
    out[0] = out[1]
    return GridFunction(x.grid, out)
