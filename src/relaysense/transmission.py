"""Data transmission through the best relay under outdated channel estimates.

The destination picks the relay whose estimated relay-to-destination SNR is
largest, but by transmit time the channel has moved: estimate and truth are
jointly Rayleigh with correlation rho. Selection statistics follow from
inclusion-exclusion over the competing relays, and conditioning the true
SNR on the selected estimate turns each subset term into a single decaying
exponential. The formulation never divides by mean differences, so
identically placed relays are fine here.

`build_trans_coeffs` gathers every data-phase constant, in one place, from
`sensing._secondary_hops` at miss 1 - p_detect, in one pass over the
relays' Python floats; the AF gain normaliser, the one constant that needs
a special function (E1), is derived on its first read, which only the
outage makes. `_subset_terms` is the one subset expansion: one (psi, phi)
row per subset of competitors. `relay_selection_prob` sums psi / phi over
the rows as they are, and the outage forms each row's exponential term
from them at its correlation rho (`_outage_terms`), so neither pays for
the other's arithmetic. The expansion runs on Python floats, since a frame
needs a few dozen scalar terms. The selected relay's dual-hop tail is the
detector's AF kernel, `sensing._af_tail`, evaluated once per term at the
one threshold `outage_probability` takes. Competitors add by ascending
inverse mean and the outage's relays by descending data-phase constants,
so relabelling the relays keeps every bit.
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
    n0 = policy.noise_power
    return TransCoeffs(p_src, p_rel, snr_means, snr_first,
                       tuple([n0 / (p_src * g) for _, g, _ in links.relay_rows]))


def _subset_terms(snr_means, i):
    """Inclusion-exclusion rows (psi, phi) of relay i's selection event, one
    per subset of competitors, taken by ascending inverse mean in
    itertools.combinations order: psi = +-1/m_i by the subset's size and
    phi = 1/m_i plus the subset's inverse means. Relay i is selected with
    probability sum(psi / phi), and `_outage_terms` forms the outage's
    exponential terms from the rows. Works on Python floats: each inverse
    mean is taken once, and each competitor sum is added left to right
    (`sum` compensates from Python 3.12 on).
    """
    others = []
    for v in snr_means:
        v = float(v)
        if v <= 0.0:
            raise ValueError("estimated SNR means must be positive")
        others.append(1.0 / v)
    _check_index(i, len(others))
    inv_i = others.pop(i)
    others.sort()
    psi = -inv_i
    rows = [(inv_i, inv_i)]
    rows += [(psi, inv_i + v) for v in others]
    for size in range(2, len(others) + 1):
        psi = -psi
        for total, *rest in itertools.combinations(others, size):
            for v in rest:
                total += v
            rows.append((psi, inv_i + total))
    return rows


def _selection_prob(rows):
    """Sum of psi / phi over the (psi, phi) rows, left to right from 0."""
    total = 0
    for psi, phi in rows:
        total += psi / phi
    return float(total)


def relay_selection_prob(snr_means, i: int) -> float:
    """Probability that relay i has the largest estimated SNR."""
    return _selection_prob(_subset_terms(snr_means, i))


def _outage_terms(m_i, rows, rho):
    """(amps, rates) of the selected relay's (psi, phi) rows at estimate
    correlation rho, for its estimated SNR mean m_i: each row's selected-
    then-decorrelated density term is amp * exp(-rate * x), with amp = psi /
    d, rate = phi / d and d = (1 - rho**2) * m_i * phi + rho**2. Stable for
    rho in [0, 1] including both endpoints."""
    rho2 = rho * rho
    one_minus = 1.0 - rho2
    amps, rates = [], []
    for psi, phi in rows:
        d = one_minus * m_i * phi + rho2
        amps.append(psi / d)
        rates.append(phi / d)
    return amps, rates


def _selected_cdf_weighted(x, u, a_mean, m_i, rows, rho):
    # Pr[selected] * CDF of the end-to-end SNR given selection, at one x >= 0
    if x == 0.0:
        return 0.0
    amps, rates = _outage_terms(m_i, rows, rho)
    # q overflows only where u is near the float limit (a tiny amplifier
    # cap); `_af_tail` clips an infinite q to a zero tail, so it is not warned
    with np.errstate(over="ignore"):
        q = x * u * np.array(rates) / a_mean
    acc = _selection_prob(rows)
    for amp, rate, tail in zip(amps, rates, _af_tail(x, a_mean, q).tolist()):
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
    m = coeffs.snr_means
    total = 0.0
    for m_i, a, u, i in sorted(zip(m, coeffs.snr_first, coeffs.u_trans,
                                   range(links.n_relays)), reverse=True):
        total += _selected_cdf_weighted(x, u, a, float(m_i), _subset_terms(m, i), rho)
    return total
