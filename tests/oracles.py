"""Independent numerical oracles used to pin expected values in the tests.

Everything here recomputes target quantities by generic quadrature or brute
force, never by the closed forms under test. Nothing in this module is
imported by the library.
"""

import math

import numpy as np
from scipy import integrate

from relaysense.fading import activity_mixture, hypoexp_cdf


def quad_j0(x):
    val, _ = integrate.quad(lambda t: math.cos(x * math.sin(t)), 0.0, math.pi,
                            limit=400, epsabs=1e-14, epsrel=1e-14)
    return val / math.pi


def quad_k1(x):
    def integrand(t):
        # cosh(t) overflows past t ~ 710; the integrand is dead long before
        if t > 700.0 or x * math.cosh(min(t, 700.0)) > 745.0 + 2.0 * t:
            return 0.0
        c = math.cosh(t)
        return math.exp(-x * c) * c

    val, _ = integrate.quad(integrand, 0.0, np.inf,
                            limit=400, epsabs=1e-300, epsrel=1e-13)
    return val


def quad_gamma_upper_0(x):
    val, _ = integrate.quad(lambda t: math.exp(-x * t) / t, 1.0, np.inf,
                            limit=400, epsabs=1e-300, epsrel=1e-13)
    return val


def quad_mean_inv_plus1(means, scale, duty):
    """E[1/(x+1)] over the continuous part of the thinned interference sum."""
    _, parts = activity_mixture(means, duty)

    def pdf(x):
        total = 0.0
        for prob, sub, w in parts:
            mm = scale * np.asarray(sub)
            total += prob * float(np.sum((w / mm) * np.exp(-x / mm)))
        return total

    val, _ = integrate.quad(lambda x: pdf(x) / (x + 1.0), 0.0, np.inf,
                            limit=400, epsabs=1e-14, epsrel=1e-12)
    return val


def dualhop_report_cdf(x, means, scale, duty, u, b):
    """CDF of g1*g2/(g2+u) where g1 is the thinned interference sum and
    g2 ~ Exp(b), by direct conditioning on g2."""
    if x == 0.0:
        return (1.0 - duty) ** len(means)

    def integrand(y):
        return hypoexp_cdf(x + x * u / y, means, scale=scale, duty=duty) \
            * math.exp(-y / b) / b

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=600,
                            epsabs=1e-12, epsrel=1e-11)
    return val


def dualhop_exp_cdf(x, a, u, b):
    """Same dual-hop chain with a plain Exp(a) first hop."""
    if x == 0.0:
        return 0.0

    def integrand(y):
        return -math.expm1(-(x + x * u / y) / a) * math.exp(-y / b) / b

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=600,
                            epsabs=1e-12, epsrel=1e-11)
    return val


def sample_thinned_sum(rng, n, means, scale, duty):
    """Draws of the thinned interference sum (including exact zeros)."""
    m = np.asarray(means, dtype=float)
    theta = rng.random((n, m.size)) < duty
    draws = rng.exponential(1.0, (n, m.size)) * (scale * m)
    return np.sum(theta * draws, axis=1)


def sample_max_exp(rng, n, means):
    m = np.asarray(means, dtype=float)
    return np.max(rng.exponential(1.0, (n, m.size)) * m, axis=1)


def ks_distance(samples, cdf, atom0=0.0):
    """Kolmogorov distance between an empirical sample and a reference CDF
    carrying an atom of mass atom0 at zero.

    Works per distinct value so tied draws (the exact zeros of the thinned
    sum) compare against the full ECDF jump, and the below-value comparison
    uses the left limit F(v-) rather than F(v)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    vals, first, counts = np.unique(x, return_index=True, return_counts=True)
    ecdf_hi = (first + counts) / n
    ecdf_lo = first / n
    f = np.asarray(cdf(vals), dtype=float)
    f_left = f - np.where(vals == 0.0, atom0, 0.0)
    return float(max(np.max(np.abs(f - ecdf_hi)), np.max(np.abs(f_left - ecdf_lo))))
