"""Cooperative detection of primary activity through amplify-and-forward reports.

Each relay squares-and-forwards its received primary energy to the
destination over a fixed-gain AF link; the destination also listens
directly. A sample trips the detector when any of the forwarded or direct
observations exceeds the threshold, and a frame detects when any of its
samples trips (OR fusion). Everything here works in noise-normalised SNR
units: absolute powers divide by the noise floor once at the boundary.
`build_report_gain` builds the reporting chain, and `_secondary_hops` the
secondary powers and hop SNRs that it, the data phase and the range check read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import InterferenceLaw, LinkSet, PrimaryModel, _check_index, activity_mixture
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
            value = getattr(self, name)
            if value < 0.0 or (name != "threshold" and value == 0.0):
                raise ValueError("policy.%s must be %s, got %g" % (
                    name, "non-negative" if name == "threshold" else "positive", value))
            if not math.isfinite(value):
                raise ValueError("policy.%s must be finite, got %g" % (name, value))
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("policy.eta must lie in (0, 1], got %g" % self.eta)


@dataclass(frozen=True, eq=False)
class ReportGain:
    """The detector side of one scenario: the interference laws at the
    destination (direct) and at each relay (relays[i]), in noise-normalised
    SNR units, one law object per distinct primary family (receivers of
    one family share it), and the design constants of relay i's fixed-gain
    AF report:
    its gain normaliser u_report[i], reporting power p_report[i] (W) and the
    mean SNR snr_report[i] of its report hop at the destination."""

    direct: InterferenceLaw
    relays: tuple
    u_report: tuple
    p_report: tuple
    snr_report: tuple

    def __post_init__(self):
        if any(u <= 0.0 for u in self.u_report):
            raise ValueError("fixed gains must be positive")


def _capped_power(policy: SecondaryPolicy, peak: float, miss: float) -> float:
    """Transmit power under both power limits. The amplifier cap and the
    average-interference cap combine harmonically,
    p = 1 / (1/p_max + miss * peak / cap), where peak is the mean strongest
    gain to a primary and miss the chance the primary is on unnoticed
    (1 while reporting)."""
    return 1.0 / (1.0 / policy.p_max + miss * peak / policy.interference_cap)


def _secondary_hops(links: LinkSet, policy: SecondaryPolicy, miss: float):
    """The one derivation of the secondary powers and hop SNRs at miss
    probability miss: (p_src, p_relay, snr_first, snr_second), the source's
    and the relays' powers (W) and relay i's mean first- and second-hop SNRs
    p_src * g_sr,i / N0 and p_relay[i] * g_rd,i / N0, on Python floats."""
    n0 = policy.noise_power
    p_src = _capped_power(policy, float(links.peak_pu_src), miss)
    p_relay = tuple(_capped_power(policy, float(peak), miss) for peak in links.peak_pu_relay)
    return (p_src, p_relay, tuple(p_src * g / n0 for g in links.g_src_relay.tolist()),
            tuple(p * g / n0 for p, g in zip(p_relay, links.g_relay_dst.tolist())))


def fixed_gain_report(law: InterferenceLaw) -> float:
    """Fixed AF gain normaliser of a relay whose received
    interference-to-noise ratio x has this law: 1 / E[1/(x+1); x>0]. With
    no continuous part (duty 0), or one too small to invert, the normaliser
    is infinite: nothing is forwarded."""
    acc = law.expect(lambda w, inv, e1: w * inv * e1,
                     lambda m: (1.0 / m, exp_scaled_gamma_upper_0(1.0 / m)))
    return 1.0 / acc if acc > 0.0 else math.inf


def _af_tail(x, a, q):
    """exp(-x/a - s) s K1e(s) at s = 2 sqrt(q), clipped so that an overflowing q
    gives 0: the fixed-gain dual-hop AF tail over a first hop of mean a, q = x u / (a b)
    for gain normaliser u and second-hop mean b (Hasna & Alouini, IEEE TWC 2004)."""
    s = np.clip(2.0 * np.sqrt(q), 1e-300, 1e300)
    return np.exp(-x / a - s) * s * bessel_k1_scaled(s)


def report_e2e_cdf(x, report: ReportGain, i: int) -> float:
    """CDF of the end-to-end forwarded interference SNR of relay i, at one
    threshold x in noise-normalised units: the all-off atom at zero plus a
    continuous part shaped by the dual-hop fixed-gain chain."""
    i = _check_index(i, len(report.relays))
    u, b = report.u_report[i], report.snr_report[i]
    # an overflow here (u = inf, or a finite u near the float limit: nothing
    # is forwarded) only ever drives the kernel to zero, so it is not warned
    with np.errstate(over="ignore"):
        return report.relays[i].cdf(x, lambda xp, mm: _af_tail(xp, mm, xp * u / (mm * b)))


def sample_miss_probability(lam_norm, report: ReportGain):
    """Probability that one sample's observations all stay below the
    normalised threshold, across the direct path and every relay report.
    Relays with one law object (so one gain normaliser) and one report SNR
    share one evaluated factor; the factors still multiply in relay order."""
    miss = report.direct.cdf(lam_norm)
    factors = {}
    for i, (law, b) in enumerate(zip(report.relays, report.snr_report)):
        key = (next(j for j, other in enumerate(report.relays) if other is law), b)
        if key not in factors:
            factors[key] = report_e2e_cdf(lam_norm, report, i)
        miss *= factors[key]
    return miss


def detection_probability(lam, n_samples, links: LinkSet, primary: PrimaryModel,
                          policy: SecondaryPolicy):
    """Frame detection probability with OR fusion over n_samples samples.

    lam is the absolute threshold in watts; n_samples may be fractional
    (the optimiser treats the sample count as continuous).
    """
    if not 0.0 < n_samples < math.inf:
        raise ValueError("need a positive finite sample count, got %g" % n_samples)
    delta = sample_miss_probability(lam / policy.noise_power,
                                    build_report_gain(links, primary, policy))
    return 1.0 - delta**n_samples


def build_report_gain(links: LinkSet, primary: PrimaryModel,
                      policy: SecondaryPolicy) -> ReportGain:
    """The whole reporting chain. It expands one interference law per
    relay or destination family of `LinkSet.family`, relays first and then
    the destination, and one fixed gain per relay family: receivers of one
    family share one law object and one gain normaliser. The reporting
    power meets both limits with the primary taken as always on (miss = 1)."""
    duty, scale = primary.duty, primary.tx_power / policy.noise_power
    relay_family, dst_family = links.family[1:-1], links.family[-1]
    laws = {f: activity_mixture(links.family_gains[f], duty, scale)
            for f in dict.fromkeys((*relay_family, dst_family))}
    fixed = {f: fixed_gain_report(laws[f]) for f in dict.fromkeys(relay_family)}
    _, p_report, _, snr_report = _secondary_hops(links, policy, 1.0)
    return ReportGain(direct=laws[dst_family], relays=tuple(laws[f] for f in relay_family),
                      u_report=tuple(fixed[f] for f in relay_family),
                      p_report=p_report, snr_report=snr_report)


# --- amplifier saturation -------------------------------------------------

def avg_clipped_gain(threshold_t, law: InterferenceLaw, u: float):
    """Mean squared gain of the clipped amplifier of a relay whose received
    level (normalised) has this law.

    Below the level threshold_t the amplifier applies the constant squared
    gain 1/u; above it the gain follows 1/(x+1). threshold_t must be
    non-negative.
    """
    t = float(threshold_t)
    if not 0.0 <= t:
        raise ValueError("clipping threshold must be non-negative, got %g" % t)

    return law.cdf(t) / u + law.expect(
        lambda w, decay, e1, mm: w * decay * e1 / mm,
        lambda m: (np.exp(-t / m), exp_scaled_gamma_upper_0((t + 1.0) / m), m))


def solve_saturation_gain(law: InterferenceLaw, u: float) -> float:
    """Received-level threshold t at which the clipped amplifier's mean
    squared gain equals the fixed-gain value 1/u.

    The relative residual r(t) = u*avg_clipped_gain(t) - 1 starts at the
    all-off atom for t = 0, since 1/u is by definition E[1/(X+1); X>0]. Its
    slope is r'(t) = u*f(t)*(1/u - 1/(t+1)) for the interference density f,
    so r falls on (0, u-1) and then rises toward 0 from below. There is
    hence exactly one root, inside (0, u-1), and none when u <= 1. It is
    bisected on s = log1p(t) over [0, log u], whose end signs are known.
    """
    if not 1.0 < u < math.inf:
        raise ValueError("clipped-gain residual has no sign change for fixed gain "
                         "u = %g: a root needs 1 < u < inf" % u)
    if law.atom == 0.0:
        # residual is exactly zero on the whole branch t <= 0: the root is
        # the plateau edge where clipping first bites
        return 0.0
    lo, hi = 0.0, math.log(u)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if u * avg_clipped_gain(math.expm1(mid), law, u) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.expm1(0.5 * (lo + hi))
