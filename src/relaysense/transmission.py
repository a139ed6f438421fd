"""Data transmission through the best relay under outdated channel estimates.

The destination picks the relay whose estimated relay-to-destination SNR is
largest, but by transmit time the channel has moved: estimate and truth are
jointly Rayleigh with correlation rho. Selection statistics follow from
inclusion-exclusion over the competing relays, and conditioning the true
SNR on the selected estimate turns each subset term into a single decaying
exponential. The formulation never divides by mean differences, so
identically placed relays are fine here.

`build_trans_coeffs` gathers every data-phase constant, in one place, from
`sensing._secondary_hops` at miss 1 - p_detect; the AF gain normaliser, the
one constant that needs a special function (E1), is derived on its first
read, which only the outage makes. `_subset_terms` is the one source of the
selection odds and of the outage's subset terms; it runs on Python floats,
since a frame needs a few dozen scalar terms. The selected relay's dual-hop
tail is the detector's AF kernel, `sensing._af_tail`, evaluated once per
term at the one threshold `outage_probability` takes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fading import LinkSet, PrimaryModel, _check_index, _threshold
from .sensing import SecondaryPolicy, _af_tail, _secondary_hops
from .specfun import bessel_j0, exp_scaled_gamma_upper_0


def rho_from_doppler(doppler_hz: float, t_diff: float) -> float:
    """Jakes correlation magnitude |J0(2 pi f_D tau)| clamped into [0, 1].
    A failure names the config key, csi.doppler_hz or csi.t_diff."""
    for key, value in (("doppler_hz", doppler_hz), ("t_diff", t_diff)):
        if value < 0.0:
            raise ValueError("csi.%s must be non-negative, got %g" % (key, value))
    x = 2.0 * math.pi * doppler_hz * t_diff
    if not math.isfinite(x):
        raise ValueError("csi.doppler_hz times csi.t_diff must keep the Jakes argument "
                         "2 pi f_D tau finite, got %g Hz and %g s" % (doppler_hz, t_diff))
    return float(min(abs(bessel_j0(x)), 1.0))


@dataclass
class TransCoeffs:
    """The data-phase constants, all gathered by `build_trans_coeffs`: the
    interference-limited transmit powers p_src and p_relay (W), whose
    interference half scales with the miss probability 1 - p_detect (the
    primaries only suffer while the band is misread), and per relay i the
    mean first-hop SNR snr_first[i] = p_src * g_sr,i / N0, its inverse as
    the AF gain normaliser reads it, inv_first[i] = N0 / (p_src * g_sr,i),
    and the mean estimated relay->destination SNR snr_means[i], which
    drives selection.

    The fixed AF gain normaliser u_trans[i] over the exponential first hop
    is derived from inv_first on its first read: only the outage reads it,
    so a frame never evaluates its E1."""

    p_src: float
    p_relay: tuple
    snr_means: tuple
    snr_first: tuple
    # not 1 / snr_first: the two differ in the last bit on about a quarter of inputs
    inv_first: tuple

    @cached_property
    def u_trans(self) -> tuple:
        return tuple(1.0 / float(c * exp_scaled_gamma_upper_0(c)) for c in self.inv_first)


def build_trans_coeffs(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                       p_detect: float) -> TransCoeffs:
    if not 0.0 <= p_detect <= 1.0:
        raise ValueError("detection probability must lie in [0, 1]")
    p_src, p_rel, snr_first, snr_means = _secondary_hops(links, policy, 1.0 - p_detect)
    return TransCoeffs(
        p_src=p_src, p_relay=p_rel, snr_means=snr_means, snr_first=snr_first,
        inv_first=tuple(policy.noise_power / (p_src * g) for g in links.g_src_relay.tolist()))


def _subset_terms(snr_means, i, rho):
    """Inclusion-exclusion terms of relay i's selection event.

    Yields (psi, phi, amp, rate) per subset of competitors, in
    itertools.combinations order, where the selected-then-decorrelated
    density contribution is amp * exp(-rate * x). Stable for rho in [0, 1]
    including both endpoints. Works on Python floats, with each inverse
    mean taken once and each competitor sum added left to right from 0
    (written out: `sum` compensates float sums from Python 3.12 on).
    """
    m = [float(v) for v in snr_means]
    if any(v <= 0.0 for v in m):
        raise ValueError("estimated SNR means must be positive")
    _check_index(i, len(m))
    inv = [1.0 / v for v in m]
    others = inv[:i] + inv[i + 1:]
    m_i, inv_i = m[i], inv[i]
    rho2 = rho * rho
    one_minus = 1.0 - rho2
    out = []
    for size in range(len(others) + 1):
        psi = -inv_i if size % 2 else inv_i
        for sub in itertools.combinations(others, size):
            total = 0
            for v in sub:
                total += v
            phi = inv_i + total
            d = one_minus * m_i * phi + rho2
            out.append((psi, phi, psi / d, phi / d))
    return out


def _selection_prob(terms):
    """Sum of psi / phi over the terms, left to right from 0."""
    total = 0
    for psi, phi, _, _ in terms:
        total += psi / phi
    return float(total)


def relay_selection_prob(snr_means, i: int) -> float:
    """Probability that relay i has the largest estimated SNR."""
    return _selection_prob(_subset_terms(snr_means, i, 0.0))


def _selected_cdf_weighted(x, u, a_mean, terms):
    # Pr[selected] * CDF of the end-to-end SNR given selection, at one x >= 0
    if x == 0.0:
        return 0.0
    rates = np.array([rate for _, _, _, rate in terms])
    # q overflows only where u is near the float limit (a tiny amplifier
    # cap); `_af_tail` clips an infinite q to a zero tail, so it is not warned
    with np.errstate(over="ignore"):
        q = x * u * rates / a_mean
    acc = _selection_prob(terms)
    for (_, _, amp, rate), tail in zip(terms, _af_tail(x, a_mean, q).tolist()):
        acc -= (amp / rate) * tail
    return acc


def outage_probability(gamma_th, links: LinkSet, primary: PrimaryModel,
                       policy: SecondaryPolicy, p_detect: float, rho: float) -> float:
    """Probability that the selected relay's end-to-end SNR falls below the
    absolute threshold gamma_th (W at the detector input), for estimates of
    correlation rho in [0, 1] with the truth."""
    coeffs = build_trans_coeffs(links, primary, policy, p_detect)
    x = _threshold(gamma_th / policy.noise_power)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation rho must lie in [0, 1], got %g" % rho)
    total = 0.0
    for i in range(links.n_relays):
        terms = _subset_terms(coeffs.snr_means, i, rho)
        total += _selected_cdf_weighted(x, coeffs.u_trans[i], coeffs.snr_first[i], terms)
    return total
