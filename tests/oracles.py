"""Independent numerical oracles used to pin expected values in the tests.

Everything here recomputes target quantities by generic quadrature or brute
force, never by the closed forms under test. Nothing in this module is
imported by the library.
"""

import itertools
import math

import numpy as np
from scipy import integrate

from relaysense.specfun import bessel_k1_scaled, exp_scaled_gamma_upper_0


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
    """E[1/(x+1)] over the continuous part of the thinned interference sum.

    Integrated over s = log1p(x), where dx / (x+1) = ds turns the integrand
    into pdf(expm1(s)). Over x, the decades far below huge means carry most
    of the value but are a sliver of the range, and quadrature misses them;
    over s each decade gets the same width. The range splits at the largest
    mean, s = log1p(scale * max(means))."""
    _, parts = subset_mixture(means, duty)

    def pdf(x):
        total = 0.0
        for prob, sub, w in parts:
            mm = scale * np.asarray(sub)
            total += prob * float(np.sum((w / mm) * np.exp(-x / mm)))
        return total

    def integrand(s):
        # expm1 overflows past s ~ 710; the density is dead long before
        return 0.0 if s > 700.0 else pdf(math.expm1(s))

    split = math.log1p(scale * float(np.max(means)))
    head, _ = integrate.quad(integrand, 0.0, split, limit=400, epsabs=0.0, epsrel=1e-12)
    tail, _ = integrate.quad(integrand, split, np.inf, limit=400, epsabs=0.0, epsrel=1e-12)
    return head + tail


def dualhop_report_cdf(x, means, scale, duty, u, b):
    """CDF of g1*g2/(g2+u) where g1 is the thinned interference sum and
    g2 ~ Exp(b), by direct conditioning on g2."""
    if x == 0.0:
        return (1.0 - duty) ** len(means)

    def integrand(y):
        return float(subset_hypoexp_cdf(x + x * u / y, means, scale, duty)[0]) \
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


def ks_bound(samples, cdf, knots, dip=1e-12):
    """An upper bound on `ks_distance` for non-negative samples, from the
    reference CDF at 0 and at `knots` sample quantiles g_k only. F and the
    ECDF F_n are non-decreasing, so on [g_k, g_{k+1}) the distance is at
    most max(F(g_{k+1}) - F_n(g_k), F_n(g_{k+1}-) - F(g_k)); past the largest
    sample, F_n = 1 and it is at most 1 - F there. `dip` covers a computed
    F that falls by up to that much between knots. The bound exceeds the
    distance by at most the largest cell's mass, about 1/knots."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    g = np.unique(np.append(0.0, x[np.linspace(0, n - 1, knots).astype(int)]))
    f = np.append(np.asarray(cdf(g), dtype=float), 1.0)
    at = np.searchsorted(x, g, side="right") / n
    below = np.append(np.searchsorted(x, g, side="left") / n, 1.0)
    return float(np.max(np.maximum(f[1:] - at, below[1:] - f[:-1]))) + dip


# --- the interference mixture, one active subset at a time -------------------
# Literal loops over the 2^L - 1 active subsets, adding each subset's term to
# the running total in itertools.combinations order. The library groups the
# subsets by active count but must add the same terms in the same order, so
# these agree with it bit for bit.

def subset_weights(sub):
    """Partial-fraction weights of one subset of pairwise-distinct means."""
    m = np.asarray(sub, dtype=float)
    diff = m[:, None] - m[None, :]
    np.fill_diagonal(diff, 1.0)
    ratios = m[:, None] / diff
    np.fill_diagonal(ratios, 1.0)
    return np.prod(ratios, axis=1)


def subset_mixture(means, duty):
    """(atom, [(prob, sub_means, weights)]) over the active subsets of
    positive probability."""
    m = np.asarray(means, dtype=float)
    n = m.size
    parts = []
    for size in range(1, n + 1):
        p_sub = duty**size * (1.0 - duty) ** (n - size)
        if p_sub == 0.0:
            continue
        for idx in itertools.combinations(range(n), size):
            sub = m[list(idx)]
            parts.append((p_sub, sub, subset_weights(sub)))
    return (1.0 - duty) ** n, parts


def subset_hypoexp_cdf(x, means, scale, duty):
    """The CDF is the atom at x = 0; only x > 0 adds the subset terms."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    atom, parts = subset_mixture(means, duty)
    out = np.full_like(x, atom)
    pos = x > 0.0
    xp = x[pos]
    for prob, sub, w in parts:
        mm = scale * sub
        out[pos] += prob * (1.0 - np.sum(w * np.exp(-xp[:, None] / mm), axis=-1))
    return out


def subset_fixed_gain_report(links, primary, policy, i):
    mix_scale = primary.tx_power / policy.noise_power
    _, parts = subset_mixture(links.g_pu_relay[i], primary.duty)
    if not parts:
        return math.inf
    acc = 0.0
    for prob, sub, w in parts:
        c = 1.0 / (mix_scale * sub)
        acc += prob * np.sum(w * c * exp_scaled_gamma_upper_0(c))
    return 1.0 / acc


def subset_report_e2e_cdf(x, links, primary, policy, i, u, p_rep):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mix_scale = primary.tx_power / policy.noise_power
    b = p_rep * float(links.g_relay_dst[i]) / policy.noise_power
    atom, parts = subset_mixture(links.g_pu_relay[i], primary.duty)
    out = np.full_like(x, atom)
    pos = x > 0.0
    xp = x[pos]
    for prob, sub, w in parts:
        mm = mix_scale * sub
        s = 2.0 * np.sqrt(xp[:, None] * u / (mm * b))
        kernel = np.exp(-xp[:, None] / mm - s) * s * bessel_k1_scaled(np.maximum(s, 1e-300))
        out[pos] += prob * (1.0 - np.sum(w * kernel, axis=-1))
    return out


def subset_avg_clipped_gain(threshold_t, links, primary, policy, i, u):
    t = float(threshold_t)
    mix_scale = primary.tx_power / policy.noise_power
    means = links.g_pu_relay[i]
    _, parts = subset_mixture(means, primary.duty)
    head = float(subset_hypoexp_cdf(t, means, mix_scale, primary.duty)[0]) / u
    tail = 0.0
    for prob, sub, w in parts:
        mm = mix_scale * sub
        c = (t + 1.0) / mm
        tail += prob * np.sum(w * np.exp(-t / mm) * exp_scaled_gamma_upper_0(c) / mm)
    return head + tail


def subset_max_exp_expectation(means):
    rates = 1.0 / np.asarray(means, dtype=float)
    total = 0.0
    for size in range(1, rates.size + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for idx in itertools.combinations(range(rates.size), size):
            total += sign / rates[list(idx)].sum()
    return total


# --- best-relay selection, on numpy scalars ----------------------------------

def numpy_subset_terms(snr_means, i, rho):
    """Relay i's inclusion-exclusion selection terms (psi, phi, amp, rate),
    written on numpy float64 scalars with numpy's own reductions. The library
    evaluates the same expressions on Python floats, in the same order, so
    the two agree bit for bit."""
    m = np.asarray(snr_means, dtype=float)
    others = [j for j in range(m.size) if j != i]
    one_minus = 1.0 - rho * rho
    out = []
    for size in range(len(others) + 1):
        for sub in itertools.combinations(others, size):
            phi = 1.0 / m[i] + sum(1.0 / m[j] for j in sub)
            psi = ((-1.0) ** size) / m[i]
            d = one_minus * m[i] * phi + rho * rho
            out.append((psi, phi, psi / d, phi / d))
    return out


def numpy_selection_prob(snr_means, i):
    return float(sum(psi / phi for psi, phi, _, _ in numpy_subset_terms(snr_means, i, 0.0)))


# --- best-relay outage, one select per relay ---------------------------------

def select_outage_hits(true, est, e, m, a, u, x):
    """Per-trial outage indicators of the relay with the largest estimate
    est[:, j] * m[j] (ties to the first index), carried relay by relay
    with np.where: the winner's true power t = true[:, j] * m[j], first-hop
    mean a[j] and gain normaliser u[j] replace the running ones where it
    wins strictly. The trial is in outage when (e * a) * t / (t + u) <= x."""
    for j in range(len(m)):
        est_j = est[:, j] * m[j]
        true_j = true[:, j] * m[j]
        if j == 0:
            best, second, a_sel, u_sel = est_j, true_j, a[0], u[0]
            continue
        win = est_j > best
        best = np.where(win, est_j, best)
        second = np.where(win, true_j, second)
        a_sel = np.where(win, a[j], a_sel)
        u_sel = np.where(win, u[j], u_sel)
    first = e * a_sel
    e2e = first * second / (second + u_sel)
    return e2e <= x


# --- best-relay outage under perfect CSI, by quadrature ------------------------

def perfect_csi_outage(x, m, a, u):
    """Outage of selection by the true second hop (rho = 1): relay i is picked
    when its Exp(m[i]) second-hop SNR y is the largest, and is out when its
    dual-hop SNR g*y/(y+u[i]), g ~ Exp(a[i]), stays at or below x. One
    quadrature over y per relay, on y = e^s, since the SNR means are large."""
    total = 0.0
    for i in range(len(m)):
        def integrand(s, i=i):
            y = math.exp(s)
            p = y * math.exp(-y / m[i]) / m[i]
            for j in range(len(m)):
                if j != i:
                    p *= -math.expm1(-y / m[j])
            return p * -math.expm1(-x * (y + u[i]) / (a[i] * y))

        # past 60 means the weight e^(-y/m[i]) is below 1e-26
        hi = math.log(60.0 * m[i])
        total += integrate.quad(integrand, hi - 80.0, hi, limit=600,
                                epsabs=0.0, epsrel=1e-12)[0]
    return total
