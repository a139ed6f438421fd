"""Data transmission through the best relay under outdated channel estimates.

The destination picks the relay whose estimated relay-to-destination SNR is
largest, but by transmit time the channel has moved: estimate and truth are
jointly Rayleigh with correlation rho. Selection statistics follow from
inclusion-exclusion over the competing relays, and conditioning the true
SNR on the selected estimate turns each subset term into a single decaying
exponential. The formulation never divides by mean differences, so
identically placed relays are fine here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fading import LinkSet, PrimaryModel, _check_index, _points
from .sensing import SecondaryPolicy, _capped_power
from .specfun import bessel_j0, bessel_k1_scaled, exp_scaled_gamma_upper_0


def rho_from_doppler(doppler_hz: float, t_diff: float) -> float:
    """Jakes correlation magnitude |J0(2 pi f_D tau)| clamped into [0, 1]."""
    if doppler_hz < 0.0 or t_diff < 0.0:
        raise ValueError("Doppler spread and lag must be non-negative")
    return float(min(abs(bessel_j0(2.0 * math.pi * doppler_hz * t_diff)), 1.0))


@dataclass
class TransCoeffs:
    """Transmission-phase derived quantities.

    p_src and p_relay are the interference-limited transmit powers (W),
    u_trans the fixed AF gain normalisers, snr_means the per-relay mean
    estimated SNRs driving selection.
    """

    p_src: float
    p_relay: tuple
    u_trans: tuple
    snr_means: tuple


def trans_powers(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                 p_detect: float):
    """Transmit powers of the source and each relay in the data phase.

    Interference at the primaries only matters while the band is misread,
    so the interference half of the harmonic combination scales with the
    miss probability 1 - p_detect.
    """
    if not 0.0 <= p_detect <= 1.0:
        raise ValueError("detection probability must lie in [0, 1]")
    miss = 1.0 - p_detect
    return (_capped_power(policy, links.peak_pu_src, miss),
            tuple(_capped_power(policy, peak, miss) for peak in links.peak_pu_relay))


def fixed_gain_trans(links: LinkSet, policy: SecondaryPolicy, i: int, p_src: float) -> float:
    """Fixed AF gain normaliser of relay i for the data phase: the first hop
    is the plain source->relay exponential SNR."""
    c = policy.noise_power / (p_src * links.gain_src_relay(i))
    return 1.0 / float(c * exp_scaled_gamma_upper_0(c))


def build_trans_coeffs(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                       p_detect: float) -> TransCoeffs:
    p_src, p_rel = trans_powers(links, primary, policy, p_detect)
    u = tuple(fixed_gain_trans(links, policy, i, p_src) for i in range(links.n_relays))
    means = tuple(p_rel[i] * links.gain_relay_dst(i) / policy.noise_power
                  for i in range(links.n_relays))
    return TransCoeffs(p_src=p_src, p_relay=p_rel, u_trans=u, snr_means=means)


def _subset_terms(snr_means, i, rho):
    """Inclusion-exclusion terms of relay i's selection event.

    Yields (psi, phi, amp, rate) per subset of competitors, where the
    selected-then-decorrelated density contribution is amp * exp(-rate * x).
    Stable for rho in [0, 1] including both endpoints.
    """
    m = np.asarray(snr_means, dtype=float)
    if np.any(m <= 0.0):
        raise ValueError("estimated SNR means must be positive")
    _check_index(i, m.size)
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


def relay_selection_prob(snr_means, i: int) -> float:
    """Probability that relay i has the largest estimated SNR."""
    terms = _subset_terms(snr_means, i, 0.0)
    return float(sum(psi / phi for psi, phi, _, _ in terms))


def _selected_cdf_weighted(x, u, a_mean, terms):
    # Pr[selected] * CDF of the end-to-end SNR given selection, at x >= 0
    scalar, x = _points(x, "SNR threshold must be non-negative")
    prr = float(sum(psi / phi for psi, phi, _, _ in terms))
    out = np.full_like(x, prr)
    pos = x > 0.0
    xp = x[pos]
    for _, _, amp, rate in terms:
        s = 2.0 * np.sqrt(np.maximum(xp * u * rate / a_mean, 1e-300))
        kernel = np.exp(-xp / a_mean - s) * s * bessel_k1_scaled(s)
        out[pos] -= (amp / rate) * kernel
    out[x == 0.0] = 0.0
    return float(out[0]) if scalar else out


def outage_probability(gamma_th, links: LinkSet, primary: PrimaryModel,
                       policy: SecondaryPolicy, p_detect: float, rho: float) -> float:
    """Probability that the selected relay's end-to-end SNR falls below the
    absolute threshold gamma_th (W at the detector input)."""
    coeffs = build_trans_coeffs(links, primary, policy, p_detect)
    x = gamma_th / policy.noise_power
    total = 0.0
    for i in range(links.n_relays):
        terms = _subset_terms(coeffs.snr_means, i, rho)
        a_mean = coeffs.p_src * links.gain_src_relay(i) / policy.noise_power
        total += _selected_cdf_weighted(x, coeffs.u_trans[i], a_mean, terms)
    return total
