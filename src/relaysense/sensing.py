"""Cooperative detection of primary activity through amplify-and-forward reports.

Each relay squares-and-forwards its received primary energy to the
destination over a fixed-gain AF link; the destination also listens
directly. A sample trips the detector when any of the forwarded or direct
observations exceeds the threshold, and a frame detects when any of its
samples trips (OR fusion). Everything here works in noise-normalised SNR
units: absolute powers divide by the noise floor once at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fading
from .fading import LinkSet, PrimaryModel, _add_in_order, _points, activity_mixture
from .specfun import bessel_k1_scaled, exp_scaled_gamma_upper_0


@dataclass
class SecondaryPolicy:
    """Radio limits shared by the secondary nodes.

    Powers in watts: p_max is the per-node amplifier cap, interference_cap
    the allowed average interference at any primary receiver, noise_power
    the thermal floor, threshold the detector level (received power),
    p_circuit_tx / p_circuit_rx the electronics draw while transmitting and
    listening. eta is the RF harvesting efficiency.
    """

    p_max: float
    interference_cap: float
    noise_power: float
    bandwidth: float
    threshold: float
    eta: float
    p_circuit_tx: float
    p_circuit_rx: float

    def __post_init__(self):
        for name in ("p_max", "interference_cap", "noise_power", "bandwidth",
                     "threshold", "p_circuit_tx", "p_circuit_rx"):
            if getattr(self, name) < 0.0 or (name != "threshold" and getattr(self, name) == 0.0):
                raise ValueError("%s must be positive" % name)
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("harvest efficiency must lie in (0, 1]")


@dataclass
class ReportGain:
    """Per-relay design constants of the fixed-gain AF reporting chain:
    u_report[i] is the dimensionless gain normaliser of relay i's report
    link and p_report[i] its reporting transmit power (W)."""

    u_report: tuple
    p_report: tuple

    def __post_init__(self):
        if any(u <= 0.0 for u in self.u_report):
            raise ValueError("fixed gains must be positive")


def _capped_power(policy: SecondaryPolicy, peak: float, miss: float = 1.0) -> float:
    """Transmit power under both power limits. The amplifier cap and the
    average-interference cap combine harmonically,
    p = 1 / (1/p_max + miss * peak / cap), where peak is the mean strongest
    gain to a primary and miss the chance the primary is on unnoticed
    (1 while reporting)."""
    return 1.0 / (1.0 / policy.p_max + miss * peak / policy.interference_cap)


def fixed_gain_report(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy, i: int):
    """Fixed AF gain normaliser of relay i: 1 / E[1/(x+1)] under the
    continuous part of the received interference-to-noise ratio x. With no
    continuous part (duty 0), or one too small to invert, the normaliser is
    infinite: nothing is forwarded."""
    mix_scale = primary.tx_power / policy.noise_power
    _, groups = activity_mixture(links.gain_pu_relay(i), primary.duty)
    acc = 0.0
    for prob, subs, w in groups:
        c = 1.0 / (mix_scale * subs)
        acc = _add_in_order(acc, prob * np.sum(w * c * exp_scaled_gamma_upper_0(c), axis=-1))
    acc = float(acc)
    return 1.0 / acc if acc > 0.0 else math.inf


def report_e2e_cdf(x, links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                   i: int, u: float, p_rep: float):
    """CDF of the end-to-end forwarded interference SNR of relay i, whose
    fixed gain normaliser is u and reporting power p_rep.

    x is in noise-normalised units. The distribution has an atom at zero
    (no primary active during the sample) and a continuous part shaped by
    the dual-hop fixed-gain chain.
    """
    scalar, x = _points(x, "SNR threshold must be non-negative")
    mix_scale = primary.tx_power / policy.noise_power
    b = p_rep * links.gain_relay_dst(i) / policy.noise_power
    atom, groups = activity_mixture(links.gain_pu_relay(i), primary.duty)
    out = np.full_like(x, atom)
    pos = x > 0.0
    xp = x[pos][:, None, None]
    # an overflow here (u = inf, or a finite u near the float limit: nothing
    # is forwarded) only ever drives the kernel to zero, so it is not warned
    with np.errstate(over="ignore"):
        for prob, subs, w in groups:
            mm = mix_scale * subs
            # clipped so that an overflowing argument gives a zero kernel, not 0 * inf
            s = np.clip(2.0 * np.sqrt(xp * u / (mm * b)), 1e-300, 1e300)
            kernel = np.exp(-xp / mm - s) * s * bessel_k1_scaled(s)
            out[pos] = _add_in_order(out[pos], prob * (1.0 - np.sum(w * kernel, axis=-1)))
    return float(out[0]) if scalar else out


def direct_cdf(x, links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy):
    """CDF of the primary SNR observed directly at the destination."""
    return fading.hypoexp_cdf(
        x, links.gain_pu_dst(), scale=primary.tx_power / policy.noise_power,
        duty=primary.duty)


def sample_miss_probability(lam_norm, links: LinkSet, primary: PrimaryModel,
                            policy: SecondaryPolicy, report: ReportGain):
    """Probability that one sample's observations all stay below the
    normalised threshold, across the direct path and every relay report."""
    miss = float(direct_cdf(lam_norm, links, primary, policy))
    for i in range(links.n_relays):
        miss *= float(report_e2e_cdf(lam_norm, links, primary, policy, i,
                                     u=report.u_report[i], p_rep=report.p_report[i]))
    return miss


def detection_probability(lam, n_samples, links: LinkSet, primary: PrimaryModel,
                          policy: SecondaryPolicy):
    """Frame detection probability with OR fusion over n_samples samples.

    lam is the absolute threshold in watts; n_samples may be fractional
    (the optimiser treats the sample count as continuous).
    """
    if n_samples <= 0:
        raise ValueError("need a positive sample count")
    delta = sample_miss_probability(lam / policy.noise_power, links, primary, policy,
                                    build_report_gain(links, primary, policy))
    return 1.0 - delta**n_samples


def build_report_gain(links: LinkSet, primary: PrimaryModel,
                      policy: SecondaryPolicy) -> ReportGain:
    """Assemble the per-relay fixed gains and reporting powers; the power
    meets both limits with the primary taken as always on (miss = 1)."""
    relays = range(links.n_relays)
    return ReportGain(
        u_report=tuple(fixed_gain_report(links, primary, policy, i) for i in relays),
        p_report=tuple(_capped_power(policy, links.peak_pu_relay[i]) for i in relays))


# --- amplifier saturation -------------------------------------------------

def avg_clipped_gain(threshold_t, links: LinkSet, primary: PrimaryModel,
                     policy: SecondaryPolicy, i: int, u: float):
    """Mean squared gain of the clipped amplifier.

    Below the received level threshold_t (normalised) the amplifier applies
    the constant squared gain 1/u; above it the gain follows 1/(x+1).
    threshold_t must be non-negative.
    """
    t = float(threshold_t)
    if t < 0.0:
        raise ValueError("clipping threshold must be non-negative, got %g" % t)
    mix_scale = primary.tx_power / policy.noise_power
    _, groups = activity_mixture(links.gain_pu_relay(i), primary.duty)
    head = fading.hypoexp_cdf(t, links.gain_pu_relay(i), scale=mix_scale,
                              duty=primary.duty) / u
    tail = 0.0
    for prob, subs, w in groups:
        mm = mix_scale * subs
        c = (t + 1.0) / mm
        tail = _add_in_order(tail, prob * np.sum(w * np.exp(-t / mm)
                                                 * exp_scaled_gamma_upper_0(c) / mm, axis=-1))
    return head + tail


def solve_saturation_gain(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                          i: int, u: float):
    """Clipping level K (W) at which the clipped amplifier's mean squared
    gain equals the fixed-gain value 1/u. Returns (K, threshold_t).

    The received-level threshold is t = K*u/noise - 1. The relative residual
    r(t) = u*avg_clipped_gain(t) - 1 starts at the all-off atom for t = 0,
    since 1/u is by definition E[1/(X+1); X>0]. Its slope is
    r'(t) = u*f(t)*(1/u - 1/(t+1)) for the interference density f, so r
    falls on (0, u-1) and then rises toward 0 from below. There is hence
    exactly one root, inside (0, u-1), and none when u <= 1. It is bisected
    on s = log1p(t) over [0, log u], whose end signs are known.
    """
    links.check_relay(i)
    if not 1.0 < u < math.inf:
        raise ValueError("clipped-gain residual has no sign change for fixed gain "
                         "u = %g: a root needs 1 < u < inf" % u)
    n0 = policy.noise_power
    atom = (1.0 - primary.duty) ** links.n_primary
    if atom == 0.0:
        # residual is exactly zero on the whole branch t <= 0: the root is
        # the plateau edge where clipping first bites
        return n0 / u, 0.0
    lo, hi = 0.0, math.log(u)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if u * avg_clipped_gain(math.expm1(mid), links, primary, policy, i, u=u) > 1.0:
            lo = mid
        else:
            hi = mid
    t = math.expm1(0.5 * (lo + hi))
    return n0 * (t + 1.0) / u, t
