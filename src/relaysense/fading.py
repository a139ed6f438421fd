"""Channel geometry, primary-user activity, and interference-sum distributions.

All links are Rayleigh, so squared channel magnitudes are exponential with
mean equal to the path-loss gain d**(-alpha) (distances in km, normalised to
a 1 km reference); `LinkSet` derives each one once, when it is built. The
aggregate interference seen from L randomly active primary transmitters is
a Bernoulli-thinned sum of non-identical exponentials: a mixture, over
active subsets, of hypoexponential densities plus a point mass at zero when
no transmitter is on. `activity_mixture` expands it into an
`InterferenceLaw`, once per primary family: receivers whose primary gain
rows are equal in every bit (as the shared `d_pu` ladder places the source,
the destination and every relay) are one family, which `LinkSet` finds once
and which shares one law, one fixed gain and one peak gain. The law's CDF
answers one threshold at a time, as every caller asks for one operating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# exact subset enumeration only; larger populations need a different method
MAX_POPULATION = 20

# relative gap under which two means are treated as a tie and rejected
DISTINCT_RTOL = 1e-9


def mean_channel_gain(d, alpha):
    """Mean squared channel magnitude of a link of length d km."""
    d = np.asarray(d, dtype=float)
    if (d <= 0.0).any():
        raise ValueError("link distance must be positive")
    return d ** (-alpha)


def _tied_rows(means):
    """Which rows of the (k, L) means are not pairwise distinct at DISTINCT_RTOL."""
    m = np.sort(means, axis=-1)
    return np.any(np.diff(m, axis=-1) <= DISTINCT_RTOL * m[..., 1:], axis=-1)


@dataclass
class LinkSet:
    """Distances (km) of every link in the network.

    d_pu_relay is indexed [l][i]: primary transmitter l to relay i. The
    secondary-side distances may repeat (identical relays are a valid
    deployment); the primary-side gain families feeding partial-fraction
    expansions must be pairwise distinct per receiver.

    What the geometry alone fixes is computed once here, read-only: the
    mean gains g_* of the five link families (g_pu_relay[i] is relay i's
    primary family) and the mean strongest primary gains E[max_l |h_l|^2]
    seen from the source (peak_pu_src) and from relay i (peak_pu_relay[i]).
    The primary families are found here and nowhere else: family[k] numbers
    the family of receiver k (source, relays, destination) by first
    appearance, family_gains[f] is family f's gain row, rows equal in every
    bit are one family, and a peak is expanded per source or relay family.
    """

    d_src_relay: tuple
    d_relay_dst: tuple
    d_pu_src: tuple
    d_pu_relay: tuple
    d_pu_dst: tuple
    alpha: float = 4.0
    g_src_relay: np.ndarray = field(init=False, repr=False, compare=False)
    g_relay_dst: np.ndarray = field(init=False, repr=False, compare=False)
    g_pu_src: np.ndarray = field(init=False, repr=False, compare=False)
    g_pu_relay: np.ndarray = field(init=False, repr=False, compare=False)
    g_pu_dst: np.ndarray = field(init=False, repr=False, compare=False)
    peak_pu_src: float = field(init=False, repr=False, compare=False)
    peak_pu_relay: tuple = field(init=False, repr=False, compare=False)
    family: tuple = field(init=False, repr=False, compare=False)
    family_gains: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.d_src_relay = tuple(float(d) for d in self.d_src_relay)
        self.d_relay_dst = tuple(float(d) for d in self.d_relay_dst)
        self.d_pu_src = tuple(float(d) for d in self.d_pu_src)
        self.d_pu_relay = tuple(tuple(float(d) for d in row) for row in self.d_pu_relay)
        self.d_pu_dst = tuple(float(d) for d in self.d_pu_dst)
        n, n_pu = len(self.d_src_relay), len(self.d_pu_src)
        if not n or len(self.d_relay_dst) != n:
            raise ValueError("links.d_src_relay and links.d_relay_dst need one distance per "
                             "relay each, got %d and %d" % (n, len(self.d_relay_dst)))
        if not n_pu:
            raise ValueError("links.d_pu_src needs at least one primary transmitter")
        if n_pu > MAX_POPULATION:
            raise ValueError("links.d_pu_src: exact subset enumeration capped at %d "
                             "transmitters, got %d" % (MAX_POPULATION, n_pu))
        if len(self.d_pu_relay) != n_pu or len(self.d_pu_dst) != n_pu:
            raise ValueError("links.d_pu_src, links.d_pu_relay and links.d_pu_dst disagree on "
                             "the transmitter count, got %d, %d and %d"
                             % (n_pu, len(self.d_pu_relay), len(self.d_pu_dst)))
        for row in self.d_pu_relay:
            if len(row) != n:
                raise ValueError("links.d_pu_relay rows must have one entry per relay, "
                                 "got %d for %d relays" % (len(row), n))
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("links.alpha must be finite and positive, got %g" % self.alpha)
        if not 2.0 <= self.alpha <= 6.0:
            warnings.warn("links.alpha %g outside the usual 2..6 range" % self.alpha)
        # one flat array: src_relay, relay_dst, then the n + 2 primary
        # families as rows of n_pu, pu_src, pu_relay relay-major (each
        # relay's family one row) and pu_dst; every field is a view of it
        g = _stored_gains(((n, "d_src_relay", self.d_src_relay),
                           (n, "d_relay_dst", self.d_relay_dst),
                           (n_pu, "d_pu_src", self.d_pu_src),
                           (n * n_pu, "d_pu_relay",
                            [row[i] for i in range(n) for row in self.d_pu_relay]),
                           (n_pu, "d_pu_dst", self.d_pu_dst)), self.alpha)
        self.g_src_relay, self.g_relay_dst = g[:n], g[n:2 * n]
        primary = g[2 * n:].reshape(n + 2, n_pu)
        self.g_pu_src, self.g_pu_relay, self.g_pu_dst = primary[0], primary[1:-1], primary[-1]
        tied = _tied_rows(primary)
        if tied.any():
            labels = (["d_pu_src: primary->source"]
                      + ["d_pu_relay: primary->relay %d" % i for i in range(n)]
                      + ["d_pu_dst: primary->destination"])
            raise ValueError(
                "links.%s means are not pairwise distinct at relative tolerance %g; "
                "perturb the geometry instead of relying on tie-breaking"
                % (labels[int(np.argmax(tied))], DISTINCT_RTOL))
        families = {}
        self.family = tuple(families.setdefault(row.tobytes(), len(families)) for row in primary)
        self.family_gains = tuple(primary[self.family.index(f)] for f in range(len(families)))
        peak = {f: max_exp_expectation(self.family_gains[f]) for f in set(self.family[:-1])}
        self.peak_pu_src = peak[self.family[0]]
        self.peak_pu_relay = tuple(peak[f] for f in self.family[1:-1])

    @property
    def n_relays(self):
        return len(self.d_src_relay)

    @property
    def n_primary(self):
        return len(self.d_pu_src)

    def check_relay(self, i):
        """Return relay index i if it names one of the relays (`_check_index`)."""
        return _check_index(i, self.n_relays)


_TINY = np.finfo(float).tiny


def _stored_gains(families, alpha):
    """The read-only mean gains of every (count, key, distances) family of
    links.<key> distances, in one flat array, family after family. Each
    gain and its square (the harvest sums g**2) must be a positive normal
    float, or a nan or inf follows; the error names the first family with a
    distance that breaks this, and its first such distance."""
    d = np.array([x for _, _, ds in families for x in ds], dtype=float)
    bad = ~(d > 0.0)
    if not bad.any():
        with np.errstate(over="ignore", under="ignore"):
            g = mean_channel_gain(d, alpha)
            sq = g * g
        bad = ~(np.isfinite(sq) & (sq >= _TINY))
    if bad.any():
        first, end = int(np.argmax(bad)), 0
        for count, key, _ in families:
            end += count
            if first < end:
                break
        raise ValueError("links.%s must be positive, with each mean gain d**-alpha and its "
                         "square finite, normal and positive, got %g km at alpha %g"
                         % (key, d[first], alpha))
    g.flags.writeable = False
    return g


def _check_index(i, n_relays):
    """Return relay index i if it names one of n_relays relays, else raise
    ValueError: a negative index would silently alias a relay from the end
    of every per-relay tuple."""
    if not 0 <= i < n_relays:
        raise ValueError("relay index %r out of range: the network has %d relay(s)"
                         % (i, n_relays))
    return i


@dataclass
class PrimaryModel:
    """Primary network: common transmit power (W) and duty cycle. The
    transmitter count is the LinkSet's (`LinkSet.n_primary`)."""

    tx_power: float
    duty: float

    def __post_init__(self):
        if self.tx_power <= 0.0:
            raise ValueError("primary.tx_power must be positive, got %g" % self.tx_power)
        if not math.isfinite(self.tx_power):
            raise ValueError("primary.tx_power must be finite, got %g" % self.tx_power)
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("primary.duty must lie in [0, 1], got %g" % self.duty)


def partial_fraction_weights(means):
    """Weights w_k of the density of a sum of independent exponentials.

    For pairwise-distinct means m_k the density is
    sum_k w_k * exp(-x/m_k) / m_k with w_k = prod_{j!=k} m_k / (m_k - m_j);
    the weights sum to one. A (..., r) stack of mean sets gives its weights.
    """
    m = np.asarray(means, dtype=float)
    r = m.shape[-1]
    diff = m[..., :, None] - m[..., None, :]
    diff.reshape(-1, r * r)[:, :: r + 1] = 1.0  # every diagonal, through a view
    ratios = m[..., :, None] / diff
    ratios.reshape(-1, r * r)[:, :: r + 1] = 1.0
    return np.prod(ratios, axis=-1)


def _threshold(x):
    """One SNR threshold x as a Python float; a negative or nan x raises."""
    x = float(x)
    if not 0.0 <= x:
        raise ValueError("SNR threshold must be non-negative, got %g" % x)
    return x


def _positive_means(means):
    m = np.asarray(means, dtype=float)
    if m.size == 0:
        raise ValueError("need at least one mean")
    if m.size > MAX_POPULATION:
        raise ValueError("exact subset enumeration capped at %d transmitters" % MAX_POPULATION)
    if np.any(m <= 0.0):
        raise ValueError("means must be positive")
    return m


def _subsets(n, size):
    """Index rows of the size-subsets of range(n), size >= 1, in
    itertools.combinations order; read-only, shared by every caller."""
    return _subset_rows(n)[size - 1]


@functools.lru_cache(maxsize=1)
def _subset_rows(n):
    """The index rows of every size 1..n, built together and kept for the
    last n only. One scenario asks for one n, and an interference law at n
    holds these same rows, so the cache holds no more than one evaluation
    at n allocates anyway."""
    rows = []
    for size in range(1, n + 1):
        idx = itertools.chain.from_iterable(itertools.combinations(range(n), size))
        a = np.fromiter(idx, dtype=np.intp).reshape(-1, size)
        a.flags.writeable = False
        rows.append(a)
    return tuple(rows)


def _add_in_order(total, terms):
    """total + terms[0] + terms[1] + ..., one addition at a time, as a float:
    np.sum adds pairwise, which moves the last bits of a saturated 1 - delta**n."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def _exp_survival(x, mm):
    """P[Exp(mm) > x], the survival of one exponential component."""
    return np.exp(-x / mm)


class InterferenceLaw(NamedTuple):
    """The thinned interference sum at one receiver, as `activity_mixture`
    expands it: the all-off atom, the L scaled means and the groups. `cdf`
    and `expect` are the only readers of the groups. Both evaluate their
    kernels once per mean and gather the values to each group's subsets,
    then add the per-subset terms one at a time, in subset order."""

    atom: float
    means: np.ndarray
    groups: tuple

    def cdf(self, x, survival=_exp_survival):
        """P[Y <= x] at one threshold x >= 0, as a Python float, for a Y that is 0
        when nothing is active and has survival(x, mm) per exponential component
        of mean mm (by default, the interference). survival is evaluated on the
        L means, and only at x > 0, so the CDF at 0 is exactly the atom."""
        x = _threshold(x)
        total = float(self.atom)
        if x > 0.0 and self.groups:
            surv = survival(x, self.means)
            for prob, idx, w in self.groups:
                total = _add_in_order(total, prob * (1.0 - np.sum(w * surv[idx], axis=-1)))
        return total

    def expect(self, term, kernel):
        """E[g(X); X > 0] over the continuous part. kernel(means) gives a
        tuple of per-mean arrays on the L scaled means; term(w, *arrays),
        with the arrays gathered to a group's subsets, gives w * E[g(Exp(mm))]
        for each component mm of the group."""
        total = 0.0
        if self.groups:
            per_mean = kernel(self.means)
            for prob, idx, w in self.groups:
                total = _add_in_order(
                    total, prob * np.sum(term(w, *(a[idx] for a in per_mean)), axis=-1))
        return total


def activity_mixture(means, duty, scale):
    """Decompose scale * the thinned interference sum into weighted
    hypoexponential parts.

    Returns the InterferenceLaw (atom, means, groups): atom is the
    probability that nothing is active, means is scale times the L means,
    and groups holds one (prob, index, weights) per active count r with
    positive probability (none at duty 0, only r = L at duty 1). prob is the
    probability of each r-subset; index (rows of indices into means) and
    weights are (C(L, r), r), one row per subset in itertools.combinations
    order.
    """
    m = _positive_means(means)
    n = m.size
    groups = []
    for size in range(1, n + 1):
        p_sub = duty**size * (1.0 - duty) ** (n - size)
        if p_sub == 0.0:
            continue
        idx = _subsets(n, size)
        groups.append((p_sub, idx, partial_fraction_weights(m[idx])))
    return InterferenceLaw((1.0 - duty) ** n, scale * m, tuple(groups))


def max_exp_expectation(means):
    """Mean of the maximum of independent exponentials by inclusion-exclusion."""
    rates = 1.0 / _positive_means(means)
    total = 0.0
    for size in range(1, rates.size + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        total = _add_in_order(total, sign / rates[_subsets(rates.size, size)].sum(axis=-1))
    return total
