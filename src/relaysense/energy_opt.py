"""Frame energy accounting and the sensing-time optimisation.

A frame of length t_total spends t_report on collecting relay reports,
t_sense on sensing (with sample count t_sense * bandwidth) and the rest on
either data transmission (band declared free) or harvesting (primary
detected). Longer sensing costs quadratically in listening energy but
raises the detection probability, which both unlocks harvesting and
suppresses the interference-limited transmit slot, so the expected frame
energy has a genuine interior trade-off. The data-rate floor enters
through an equivalent SNR-form constraint that is exactly monotone and
convex in the sensing time, which keeps the one-dimensional search and the
multiplier bookkeeping elementary.

Each sensing time the search visits costs one frame build
(`EnergyModel.frame`): a miss probability and one `build_trans_coeffs`,
on Python floats and with no special function, since nothing here reads
the outage's AF gain normaliser. A relay's selection odds are priced only
when that relay is read (`Frame.prr`), so an optimisation over one relay
pays for one. `Frame.necessary_condition` is the paper's per-node
condition on the optimum, the sign of the energy slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fading import LinkSet, PrimaryModel
from .harvest import harvest_mean_power
from .sensing import SecondaryPolicy, build_report_gain, sample_miss_probability
from .transmission import TransCoeffs, build_trans_coeffs, relay_selection_prob

TIME_TOL = 1e-7       # sensing-time resolution, s
LN2 = math.log(2.0)


@dataclass(frozen=True)
class Frame:
    """One frame at a fixed sensing time: every quantity of the energy and
    data expressions that moves with t_sense, evaluated once, and the one
    ledger of per-relay figures read from them.

    The transmission coefficients do not depend on the relay, so one build
    serves every relay's selection probability (`prr`) and transmit-slot
    power (e_transmit, W). `prr(i)` prices relay i's odds on its first read
    and keeps them in `odds`, a dict that lives in the sensing time's stored
    fields, so every frame at one sensing time shares one priced value and a
    frame read for one relay prices one relay's odds. The frame never reads
    the coefficients' AF gain normaliser, so building one evaluates no
    special function. Listening is charged in two accounts: the frame energy
    takes e_listen (J), quadratic in t_sense (listen power times sample
    count times slot), and the ECG takes `listen_linear`, the conventional
    account linear in t_sense.

    Each method checks its relay index first, as the per-relay tuples would
    alias a negative one.
    """

    t_sense: float
    t_data: float
    miss: float
    p_detect: float
    coeffs: TransCoeffs
    odds: dict
    e_transmit: tuple
    e_listen: tuple
    model: EnergyModel = field(repr=False, compare=False)

    def prr(self, i: int) -> float:
        """Selection probability of relay i, priced from the estimated SNR
        means on its first read and kept in `odds`; two threads that race on
        one relay compute the same value and both return the one stored."""
        p = self.odds.get(self.model.links.check_relay(i))
        if p is None:
            p = self.odds.setdefault(i, relay_selection_prob(self.coeffs.snr_means, i))
        return p

    def energy_nonharvesting(self, i: int) -> float:
        """Expected frame energy of relay i with the harvester disabled."""
        self.model.links.check_relay(i)
        return self.e_listen[i] + self.miss * self.prr(i) * self.e_transmit[i] * self.t_data

    def energy(self, i: int) -> float:
        """Expected frame energy of relay i, harvesting credited on detection."""
        return (self.energy_nonharvesting(i)
                - self.p_detect * self.model.harvest_mean[i] * self.t_data)

    def data(self, i: int) -> float:
        """Expected bits moved through relay i in one frame."""
        self.model.links.check_relay(i)
        return self.miss * self.prr(i) * self.model.rate * self.t_data

    def listen_linear(self, i: int) -> float:
        """Sensing-plus-reporting energy of relay i, linear in t_sense."""
        m = self.model
        m.links.check_relay(i)
        return (m.e_sense * self.t_sense
                + m.e_report[i] * m.t_report * self.t_sense * m.policy.bandwidth)

    def ecg(self, i: int) -> float:
        """Consumed-to-harvested energy ratio of relay i; inf when nothing is
        harvested, as at p_detect == 0."""
        self.model.links.check_relay(i)
        harvested = self.p_detect * self.model.harvest_mean[i] * self.t_data
        if harvested == 0.0:
            return math.inf
        consumed = (self.listen_linear(i)
                    + (1.0 - self.p_detect) * self.prr(i) * self.e_transmit[i] * self.t_data)
        return consumed / harvested

    def slope(self, i: int) -> float:
        """Derivative of relay i's expected frame energy in t_sense, holding the
        detection-dependent transmit power and selection odds at their local
        values (the stationarity form the multiplier identity is built on)."""
        m = self.model
        m.links.check_relay(i)
        w = m.policy.bandwidth
        h = m.harvest_mean[i]
        if self.miss == 0.0:
            bracket = 0.0
        else:
            bracket = self.miss * (1.0 - self.t_data * w * m.log_delta)
        return (2.0 * m.e_sense * self.t_sense * w
                + m.e_report[i] * m.t_report * w
                + h - (self.prr(i) * self.e_transmit[i] + h) * bracket)

    def necessary_condition(self, i: int) -> bool:
        """The paper's necessary condition on relay i's optimum: the
        transmit-side pull must not exceed the sensing-side push,

            h + prr*e_transmit <= delta**(-t_sense*W)
                                  * (h + 2*e_sense*t_sense*W + e_report*t_report*W)
                                  / (1 - t_data*W*ln(delta)),

        with h the mean harvested power. That is the sign of `slope`."""
        return self.slope(i) >= 0.0

    def constraint(self, i: int, d_star: float) -> float:
        """SNR-form data constraint of relay i; non-positive iff the expected data
        per frame reaches d_star bits. Strictly increasing and convex in t_sense."""
        m = self.model
        m.links.check_relay(i)
        if not 0.0 <= d_star:
            raise ValueError("data floor must be non-negative, got %g" % d_star)
        gamma_rate = math.expm1(LN2 * m.rate / m.policy.bandwidth)
        if d_star == 0.0:
            return -gamma_rate
        if m.delta <= 0.0:
            return math.inf
        w = m.policy.bandwidth
        ln_g = (math.log(d_star) - math.log(self.t_data * w * self.prr(i))
                - self.t_sense * w * m.log_delta)
        if ln_g > 700.0:
            return math.inf
        g = math.exp(ln_g)
        try:
            return math.expm1(LN2 * g) - gamma_rate
        except OverflowError:
            return math.inf

    def multiplier(self, i: int, d_star: float) -> float:
        """Multiplier mu >= 0 of relay i's active data constraint, from
        stationarity of energy + mu * constraint: mu = -slope / constraint'
        (Boyd & Vandenberghe 2004, sec. 5.5), with pref = 1 / constraint'."""
        self.model.links.check_relay(i)
        if not 0.0 <= d_star:
            raise ValueError("data floor must be non-negative, got %g" % d_star)
        w = self.model.policy.bandwidth
        if self.miss == 0.0 or d_star == 0.0:
            # no data ever leaves, or a zero floor: the constraint is slack
            return 0.0
        g = d_star / (self.miss * self.t_data * w * self.prr(i))
        if g > 1e6:
            # 2**-g underflows far before this; the constraint cannot be active here
            return 0.0
        pref = (2.0 ** (-g) * self.miss * self.prr(i) * self.t_data * self.t_data * w
                / (d_star * LN2 * (1.0 - self.t_data * w * self.model.log_delta)))
        return -pref * self.slope(i)


class EnergyModel:
    """Scenario-level cache for the frame-energy expressions.

    Holds what does not move with the sensing time (miss probability per
    sample, report powers and gains, harvest means); `frame` evaluates the
    t_sense-dependent pieces, so detection-dependent transmit powers and
    selection odds are always taken at the same sensing time as the energy
    they enter.

    The inputs are fixed after construction: `delta`, `report` and
    `harvest_mean` are computed once here. Build a new model rather than
    mutating one.

    `frame` keeps each sensing time's fields for the model's lifetime, so
    every reader at one sensing time shares one build. The model holds no
    Monte Carlo state: `mcsim`'s held slot keeps the frame simulators'
    draws for the last model they ran on.
    """

    def __init__(self, links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy,
                 t_total: float, t_report: float, rate: float):
        if t_report <= 0.0 or t_total <= t_report:
            raise ValueError("need 0 < t_report < t_total")
        if rate <= 0.0:
            raise ValueError("data rate must be positive")
        for key, value in (("frame.t_total", t_total), ("frame.t_report", t_report),
                           ("traffic.rate", rate)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (key, value))
        self.links = links
        self.primary = primary
        self.policy = policy
        self.t_total = float(t_total)
        self.t_report = float(t_report)
        self.t_listen = float(t_total) - float(t_report)
        self.rate = float(rate)
        self.report = build_report_gain(links, primary, policy)
        self.delta = sample_miss_probability(policy.threshold / policy.noise_power,
                                             self.report)
        self.log_delta = math.log(self.delta) if self.delta > 0.0 else -math.inf
        self.e_sense = policy.p_circuit_rx
        self.e_report = tuple(p + policy.p_circuit_tx for p in self.report.p_report)
        self.harvest_mean = tuple(harvest_mean_power(links, primary, policy, i)
                                  for i in range(links.n_relays))
        self._frames = {}  # t_sense -> Frame fields, filled by `frame`

    @property
    def n_relays(self):
        return self.links.n_relays

    def miss(self, t_sense: float) -> float:
        return self.delta ** (t_sense * self.policy.bandwidth)

    def frame(self, t_sense: float) -> Frame:
        """The frame at sensing time t_sense, which must lie strictly inside
        the listen window.

        Its t_sense-dependent fields are computed on the first call for
        t_sense and kept for the model's lifetime, so a later call builds
        nothing and returns an equal Frame. Only the fields are kept, not
        the Frame: it refers back to the model, and that cycle would keep a
        model, once `mcsim`'s held slot lets go of it, until the cyclic
        garbage collector runs.
        """
        fields = self._frames.get(t_sense)
        if fields is None:
            if not 0.0 < t_sense < self.t_listen:
                raise ValueError("sensing time must lie strictly inside (0, %g) s"
                                 % self.t_listen)
            # a racing thread may compute them too; both read the one stored
            fields = self._frames.setdefault(t_sense, self._frame_fields(t_sense))
        return Frame(model=self, **fields)

    def _frame_fields(self, t_sense: float) -> dict:
        miss = self.miss(t_sense)
        p_detect = 1.0 - miss
        coeffs = build_trans_coeffs(self.links, self.primary, self.policy, p_detect)
        w = self.policy.bandwidth
        return dict(
            t_sense=t_sense,
            t_data=self.t_listen - t_sense,
            miss=miss,
            p_detect=p_detect,
            coeffs=coeffs,
            odds={},
            e_transmit=tuple(p + self.policy.p_circuit_tx for p in coeffs.p_relay),
            e_listen=tuple(self.e_sense * t_sense * t_sense * w + e * self.t_report * t_sense * w
                           for e in self.e_report),
        )


def total_energy_nonharvesting(model: EnergyModel, i: int, t_sense: float) -> float:
    """Expected frame energy of relay i with the harvester disabled."""
    return model.frame(t_sense).energy_nonharvesting(i)


def total_energy(model: EnergyModel, i: int, t_sense: float) -> float:
    """Expected frame energy of relay i, harvesting credited on detection."""
    return model.frame(t_sense).energy(i)


def ecg(model: EnergyModel, i: int, t_sense: float) -> float:
    """Consumed-to-harvested energy ratio of relay i at the given split.

    Uses the conventional account where listening charges linearly in the
    sensing time. Undetectable primaries harvest nothing, which makes the
    ratio infinite."""
    return model.frame(t_sense).ecg(i)


class InfeasibleDataError(ValueError):
    """Raised when no sensing time can reach the requested data floor."""

    def __init__(self, d_star, max_data):
        self.d_star = d_star
        self.max_data = max_data
        super().__init__(
            "data floor %g bits/frame unreachable; at most %g bits/frame "
            "are available as the sensing slot shrinks to zero" % (d_star, max_data))


@dataclass
class SensingOptimum:
    """Result of the sensing-time optimisation for one relay."""

    t_sense: float
    multiplier: float
    energy: float
    data: float
    constraint_active: bool


def optimize_sensing_time(model: EnergyModel, i: int, d_star: float) -> SensingOptimum:
    """Minimise the expected frame energy of relay i over the sensing time,
    subject to the expected data per frame reaching d_star bits.

    The data side is strictly decreasing in the sensing time, so the
    feasible set is an interval (0, t_max]; the energy objective is convex
    there, so golden-section search suffices.
    """
    if not 0.0 <= d_star:
        raise ValueError("data floor must be non-negative, got %g" % d_star)
    lo = TIME_TOL
    hi = model.t_listen - TIME_TOL
    if hi <= lo:
        raise ValueError("listen window too short to split")
    t_max = hi
    if d_star > 0.0:
        d_lo = model.frame(lo).data(i)
        if d_lo < d_star:
            raise InfeasibleDataError(d_star, d_lo)
        if model.frame(hi).data(i) < d_star:
            a, b = lo, hi
            for _ in range(80):
                mid = 0.5 * (a + b)
                if model.frame(mid).data(i) >= d_star:
                    a = mid
                else:
                    b = mid
            t_max = a

    def obj(t):
        return model.frame(t).energy(i)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, t_max
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > TIME_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = obj(d)
    t_star = 0.5 * (a + b)

    # endpoints can beat the interior bracket when the objective is monotone
    candidates = [(obj(lo), lo), (obj(t_star), t_star), (obj(t_max), t_max)]
    _, t_star = min(candidates, key=lambda p: p[0])

    interior = lo + TIME_TOL < t_star < t_max - TIME_TOL
    if interior:
        # settle on the grid point where the analytic slope turns non-negative,
        # so the stationarity checks downstream are deterministic
        for cand in (a, 0.5 * (a + b), b):
            if lo < cand < t_max and model.frame(cand).slope(i) >= 0.0:
                t_star = cand
                break

    f = model.frame(t_star)
    # the floor binds when it cut the bracket short and the optimum sits on that end
    active = t_max < hi and t_star == t_max
    mu = f.multiplier(i, d_star) if active else 0.0
    return SensingOptimum(
        t_sense=t_star,
        multiplier=mu,
        energy=f.energy(i),
        data=f.data(i),
        constraint_active=active,
    )
