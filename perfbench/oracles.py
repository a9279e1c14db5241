"""Reference solutions that share no code with fracpicard.

Every value here comes from the standard library's ``math.erfc`` or from
a product-trapezoid solver written out below.  The closed forms rest on
the identity ``E_{1/2}(z) = exp(z**2) * erfc(-z)`` for the half-order
Mittag-Leffler function, an eigenfunction of the order-1/2 Caputo
derivative.
"""

from __future__ import annotations

import math

import numpy as np


def half_order_ml(z: float) -> float:
    """``E_{1/2}(z) = exp(z**2) * erfc(-z)``."""
    return math.exp(z * z) * math.erfc(-z)


def half_order_ml_series(z: float, terms: int = 200) -> float:
    """``E_{1/2}(z)`` by its defining series ``sum z**k / Gamma(k/2 + 1)``."""
    return math.fsum(z**k / math.gamma(k / 2.0 + 1.0) for k in range(terms))


def reference_exact(t: np.ndarray, c: float) -> np.ndarray:
    """Solution of the shifted reference problem: ``sqrt(t) + E_{1/2}(sqrt(t)) - c``."""
    return np.array([math.sqrt(s) + half_order_ml(math.sqrt(s)) - c for s in t])


def linear_exact(t: np.ndarray, lam: float, x0: float) -> np.ndarray:
    """Solution of ``D^{1/2} x = lam * x``: ``x0 * E_{1/2}(lam * sqrt(t))``."""
    return np.array([x0 * half_order_ml(lam * math.sqrt(s)) for s in t])


def _trapezoid_integral(alpha: float, h: float, z: np.ndarray) -> np.ndarray:
    """Product-trapezoid fractional integral of the columns of ``z``.

    Node ``k`` integrates the piecewise-linear interpolant of ``z`` against
    ``(t_k - s)**(alpha - 1) / Gamma(alpha)`` exactly.  The weights of
    nodes ``1..k`` depend only on ``k - j``, so the sum is a convolution,
    done here by FFT.
    """
    n = z.shape[0] - 1
    ap1 = alpha + 1.0
    m = np.arange(n, dtype=float)
    kern = (m + 1.0) ** ap1 - 2.0 * m**ap1 + np.abs(m - 1.0) ** ap1
    kern[0] = 1.0
    k = np.arange(1, n + 1, dtype=float)
    first = (k - 1.0) ** ap1 - (k - 1.0 - alpha) * k**alpha
    size = 1 << (2 * n - 1).bit_length()
    conv = np.fft.irfft(
        np.fft.rfft(kern, size)[:, None] * np.fft.rfft(z[1:], size, axis=0), size, axis=0
    )[:n]
    out = np.zeros_like(z)
    out[1:] = h**alpha / math.gamma(alpha + 2.0) * (first[:, None] * z[0] + conv)
    return out


def family_reference(anchors, T: float, n: int) -> np.ndarray:
    """States of the anchored family of ``rhs = 0.75*x + 0.25*y + t*sin(x)/8``.

    With ``y = D^{1/2} x`` the equation is linear in ``y`` and solves to
    ``y = x + t*sin(x)/6``; Picard iteration on that explicit map runs on
    an ``n``-step grid until the update is at rounding level.  Returns an
    ``(n + 1, len(anchors))`` array of ``x``.
    """
    a = np.asarray(anchors, dtype=float)[None, :]
    t = np.linspace(0.0, T, n + 1)[:, None]
    h = T / n
    z = np.repeat(a, n + 1, axis=0)
    for _ in range(2000):
        x = a + _trapezoid_integral(0.5, h, z)
        z_next = x + t * np.sin(x) / 6.0
        step = float(np.max(np.abs(z_next - z)))
        z = z_next
        if step <= 1e-14:
            break
    else:
        raise RuntimeError("family reference iteration did not settle")
    return a + _trapezoid_integral(0.5, h, z)
