"""Special-function kernels used by the closed-form expressions.

Thin, contract-checked wrappers around scipy.special. The wrappers pin down
domain behaviour (errors instead of silent nan/inf) so the layers above can
rely on it; the numerics themselves are scipy's.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


def bessel_j0(x):
    """Bessel function of the first kind, order zero."""
    return sp.j0(x)


def bessel_k1_scaled(x):
    """exp(x) * K1(x), stable for large arguments. Requires x > 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("bessel_k1_scaled requires x > 0")
    return sp.k1e(x)


def exp_scaled_gamma_upper_0(x):
    """exp(x) * Gamma(0, x) without overflow, for x > 0.

    Direct exp(x)*exp1(x) degrades once exp1 underflows, so switch to the
    continued fraction exp(x)*E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- ...))) for
    large x (modified Lentz).
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("exp_scaled_gamma_upper_0 requires x > 0")
    scalar = np.isscalar(x) or xa.ndim == 0
    xa = np.atleast_1d(xa).astype(float)
    out = np.empty_like(xa)
    small = xa <= 30.0
    out[small] = np.exp(xa[small]) * sp.exp1(xa[small])
    out[~small] = [_e1_scaled_cf(v) for v in xa[~small].tolist()]
    return float(out[0]) if scalar else out


def _e1_scaled_cf(x):
    # modified Lentz on the classical continued fraction of E1
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 200):
        a = -(k * k)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h
