"""Independent oracles the tests score the package against.

Everything here is written directly from defining formulas or textbook
schemes and shares no code with the package, so agreement is evidence
rather than tautology.  Keep it that way: no imports from fracpicard.
"""

import math

import numpy as np


def erfc_identity(z):
    """Half-order Mittag-Leffler through the closed form exp(z^2)*erfc(-z)."""
    return math.exp(z * z) * math.erfc(-z)


def sup_norm(values):
    """Supremum over nodes of the Euclidean magnitude of each row of ``values``."""
    return float(np.max(np.linalg.norm(values, axis=1)))


def ml_series(alpha, z, terms=200):
    """Plain-summation Mittag-Leffler series with per-term log evaluation.

    No compensated summation, no running ratios: each term is computed
    from scratch as exp(k*log|z| - lgamma(alpha*k + 1)).  Adequate for
    |z| up to a few tens, which covers every value the tests need.
    """
    if z == 0.0:
        return 1.0
    logz = math.log(abs(z))
    total = 0.0
    for k in range(terms):
        term = math.exp(k * logz - math.lgamma(alpha * k + 1.0))
        if z < 0.0 and k % 2 == 1:
            term = -term
        total += term
    return total


def frac_integral_power(alpha, beta, t):
    """Power rule: I^alpha t^beta = Gamma(beta+1)/Gamma(alpha+beta+1) * t^(alpha+beta)."""
    return math.gamma(beta + 1.0) / math.gamma(alpha + beta + 1.0) * t ** (alpha + beta)


def caputo_power(alpha, beta, t):
    """Power rule: D^alpha t^beta = Gamma(beta+1)/Gamma(beta+1-alpha) * t^(beta-alpha)."""
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha) * t ** (beta - alpha)


def trapezoid_column0(alpha, h, n):
    """Column 0 of the product-trapezoid weights for I^alpha on n steps of size h.

    Entry k integrates the hat function of node 0 against the kernel
    (t_k - s)^(alpha-1) / Gamma(alpha): in units of h^alpha / Gamma(alpha+2)
    it is (k-1)^(alpha+1) - (k-1-alpha) k^alpha, and 0 at k = 0.
    """
    k = np.arange(1.0, n + 1.0)
    col = np.zeros(n + 1)
    col[1:] = (k - 1.0) ** (alpha + 1.0) - (k - 1.0 - alpha) * k**alpha
    return col * (h**alpha / math.gamma(alpha + 2.0))


def trapezoid_row(alpha, h, k):
    """Columns 1..k of row k >= 1 of the product-trapezoid weights for I^alpha.

    In units of h^alpha / Gamma(alpha+2), entry j is
    (k-j+1)^(alpha+1) - 2 (k-j)^(alpha+1) + (k-j-1)^(alpha+1) for j < k
    and 1 at j = k.

    Both this and trapezoid_column0 evaluate their closed form with numpy
    array powers.  The forms cancel: an ulp of difference in a power moves
    an entry by about eps * k^(alpha+1) relative, which would hide the
    assembly and apply errors the comparisons are after.
    """
    p = alpha + 1.0
    j = np.arange(1.0, k)
    row = np.ones(k)
    row[:-1] = (k - j + 1.0) ** p - 2.0 * (k - j) ** p + (k - j - 1.0) ** p
    return row * (h**alpha / math.gamma(alpha + 2.0))


def trapezoid_weights(alpha, T, n):
    """Dense (n+1, n+1) product-trapezoid weight matrix on the uniform n-step grid."""
    W = np.zeros((n + 1, n + 1))
    W[:, 0] = trapezoid_column0(alpha, T / n, n)
    for k in range(1, n + 1):
        W[k, 1 : k + 1] = trapezoid_row(alpha, T / n, k)
    return W


def trapezoid_integral(alpha, T, z):
    """I^alpha of grid samples z, shape (n+1, d), one weight row at a time."""
    n = z.shape[0] - 1
    out = trapezoid_column0(alpha, T / n, n)[:, None] * z[0]
    for k in range(1, n + 1):
        out[k] += trapezoid_row(alpha, T / n, k) @ z[1 : k + 1]
    return out


def caputo_l1_loop(alpha, T, x):
    """L1 Caputo derivative of grid samples x, shape (n+1, d), by its defining sum.

    Node k >= 1 is h^-alpha / Gamma(2-alpha) times the sum over panels j < k
    of (x_{j+1} - x_j) ((k-j)^(1-alpha) - (k-j-1)^(1-alpha)); node 0
    repeats node 1.
    """
    n = x.shape[0] - 1
    h = T / n
    out = np.zeros_like(x, dtype=float)
    for k in range(1, n + 1):
        j = np.arange(float(k))
        moments = (k - j) ** (1.0 - alpha) - (k - j - 1.0) ** (1.0 - alpha)
        out[k] = moments @ (x[1 : k + 1] - x[:k]) * (h**-alpha / math.gamma(2.0 - alpha))
    out[0] = out[1]
    return out


def abm_solve(alpha, T, x0, F, n):
    """Explicit fractional initial-value problem by Adams predictor-corrector.

    Marches D^alpha x = F(t, x), x(0) = x0 node by node on a uniform
    grid: rectangle-rule predictor, then a single corrector evaluation
    per node.  This is a marching scheme with no global fixed-point
    iteration, which is what makes it an independent cross-check for the
    solver under test.

    Returns the array of node values, shape (n + 1,), scalar problems only.
    """
    h = T / n
    ts = np.linspace(0.0, T, n + 1)
    ga1 = math.gamma(alpha + 1.0)
    ga2 = math.gamma(alpha + 2.0)

    x = np.empty(n + 1)
    fv = np.empty(n + 1)
    x[0] = float(x0)
    fv[0] = F(ts[0], x[0])

    for k in range(1, n + 1):
        j = np.arange(k, dtype=float)
        b = ((k - j) ** alpha - (k - j - 1.0) ** alpha) * h**alpha / ga1
        x_pred = x[0] + float(b @ fv[:k])

        a = np.empty(k + 1)
        a[0] = (k - 1.0) ** (alpha + 1.0) - (k - 1.0 - alpha) * float(k) ** alpha
        if k > 1:
            m = k - j[1:]
            a[1:k] = (
                (m + 1.0) ** (alpha + 1.0)
                - 2.0 * m ** (alpha + 1.0)
                + (m - 1.0) ** (alpha + 1.0)
            )
        a[k] = 1.0
        a *= h**alpha / ga2

        x[k] = x[0] + float(a[:k] @ fv[:k]) + a[k] * F(ts[k], x_pred)
        fv[k] = F(ts[k], x[k])
    return x


def brute_hausdorff(A, B, dist):
    """Pompeiu-Hausdorff distance by the textbook max-min double loop."""

    def directed(P, Q):
        worst = 0.0
        for p in P:
            best = min(dist(p, q) for q in Q)
            worst = max(worst, best)
        return worst

    return max(directed(A, B), directed(B, A))
