"""Scenario assembly: unit-aware config parsing and named figure presets.

A scenario is a flat section.key tree of strings (INI file, preset, or
command-line override) that gets parsed once into the typed model objects.
Powers can be given in watts, dBm, or dB relative to the configured noise
floor; times, rates, frequencies and distances take the usual suffixes.
"""

from __future__ import annotations

import configparser
import math
import re
import sys
from dataclasses import dataclass

from .energy_opt import EnergyModel
from .fading import LinkSet, PrimaryModel
from .sensing import SecondaryPolicy, _secondary_hops
from .transmission import rho_from_doppler

_UNIT_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")

_SCALES = {
    "": 1.0,
    "w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9, "pw": 1e-12,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "km": 1.0, "m": 1e-3,
    "bps": 1.0, "kbps": 1e3, "mbps": 1e6, "gbps": 1e9,
}


def parse_quantity(text: str, noise_power: float = None) -> float:
    """Parse '20 dBm', '3 dB', '100 kbps', '0.4 km', '1 MHz', or a bare number.

    Distances come back in km, everything else in SI base units. 'dB' is
    relative to the noise floor and needs noise_power. A number or result
    that is not finite ('1e999', '4000 dBW') is rejected.
    """
    m = _UNIT_RE.match(str(text))
    if not m:
        raise ValueError("cannot parse quantity %r" % text)
    val = float(m.group(1))
    unit = m.group(2).lower()
    try:
        if unit == "dbm":
            out = 10.0 ** ((val - 30.0) / 10.0)
        elif unit == "dbw":
            out = 10.0 ** (val / 10.0)
        elif unit == "db":
            if noise_power is None:
                raise ValueError("dB values are relative to the noise floor, "
                                 "which is not set yet")
            out = noise_power * 10.0 ** (val / 10.0)
        elif unit in _SCALES:
            out = val * _SCALES[unit]
        else:
            raise ValueError("unknown unit %r in %r" % (m.group(2), text))
    except OverflowError:
        out = math.inf
    if not (math.isfinite(val) and math.isfinite(out)):
        raise ValueError("quantity %r is not finite" % text)
    return out


def parse_list(text: str, noise_power: float = None):
    items = [p for p in re.split(r"[,\s]+", str(text).strip()) if p]
    # re-join number+unit pairs split by whitespace ('0.4 km, 0.5 km')
    merged = []
    for p in items:
        if merged and re.fullmatch(r"[a-zA-Z]+", p):
            merged[-1] = merged[-1] + " " + p
        else:
            merged.append(p)
    return [parse_quantity(p, noise_power) for p in merged]


VALID_KEYS = {
    "links": {"d_src_relay", "d_relay_dst", "d_pu", "d_pu_src", "d_pu_dst",
              "d_pu_relay", "alpha"},
    "primary": {"tx_power", "duty"},
    "policy": {"p_max", "interference_cap", "noise_power", "bandwidth",
               "threshold", "eta", "p_circuit_tx", "p_circuit_rx"},
    "csi": {"rho", "doppler_hz", "t_diff"},
    "frame": {"t_total", "t_report", "t_sense"},
    "traffic": {"rate", "gamma_th", "d_star"},
    "sim": {"trials", "seed", "workers", "relay"},
}


# the value of every optional key; preset() builds on the same tree
DEFAULTS = {
    "links": {"alpha": "4"},
    "policy": {"eta": "0.35"},
    "csi": {"rho": "0.75"},
    "frame": {"t_total": "100 ms", "t_report": "1 ms", "t_sense": "20 ms"},
    "traffic": {"rate": "100 kbps", "gamma_th": "3 dB", "d_star": "0"},
    "sim": {"trials": "1000000", "seed": "1234", "workers": "1", "relay": "0"},
}


class ConfigError(ValueError):
    pass


def _check_keys(conf: dict):
    for section, entries in conf.items():
        if section not in VALID_KEYS:
            raise ConfigError(
                "unknown config section %r; valid sections: %s"
                % (section, ", ".join(sorted(VALID_KEYS))))
        for key in entries:
            if key not in VALID_KEYS[section]:
                raise ConfigError(
                    "unknown key %r in section [%s]; valid keys: %s"
                    % (key, section, ", ".join(sorted(VALID_KEYS[section]))))


@dataclass
class Scenario:
    """One fully resolved experiment setup."""

    links: LinkSet
    primary: PrimaryModel
    policy: SecondaryPolicy
    rho: float
    t_total: float
    t_report: float
    t_sense: float
    rate: float
    gamma_th: float
    d_star: float
    trials: int
    seed: int
    workers: int
    relay: int

    @property
    def n_samples(self) -> float:
        """Samples in one sensing slot, t_sense * W, unrounded: the count
        `EnergyModel.miss`, the frame simulators and the optimiser use, so
        every command reads one p_detect at one slot. On every preset it is
        a whole float (200.0 or 20000.0). A slot shorter than one sample
        raises ConfigError."""
        n = self.t_sense * self.policy.bandwidth
        if n < 1.0:
            raise ConfigError("frame.t_sense %g s is shorter than one sample period "
                              "1/policy.bandwidth = %g s"
                              % (self.t_sense, 1.0 / self.policy.bandwidth))
        return n

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.links, self.primary, self.policy,
                           self.t_total, self.t_report, self.rate)


def scenario_from_conf(conf: dict) -> Scenario:
    """Build a Scenario out of a {section: {key: string}} tree.

    Every bad value raises ConfigError: a quantity that does not parse, a
    value the model objects reject, a CSI correlation outside [0, 1], a
    report slot outside the frame, a non-positive data rate, a sensing slot
    shorter than one sample or beyond the listen window, a data floor that
    is negative or not finite, a trial count that is not a whole number of
    at least two, fewer than one worker, a relay index out of range, or a
    power whose noise-normalised means leave the float range, or whose
    products as the estimators form them overflow (`_check_snr_range`).
    """
    try:
        scn = _parse_scenario(conf)
        _check_snr_range(scn.links, scn.primary, scn.policy)
        scn.n_samples  # raises on a sensing slot shorter than one sample
        if not 0.0 < scn.t_report < scn.t_total:
            raise ConfigError("need 0 < frame.t_report < frame.t_total, got %g s and %g s"
                              % (scn.t_report, scn.t_total))
        if scn.rate <= 0.0:
            raise ConfigError("traffic.rate must be positive, got %g" % scn.rate)
        if scn.t_sense >= scn.t_total - scn.t_report:
            raise ConfigError("frame.t_sense must lie inside the listen window (0, %g) s, "
                              "got %g s" % (scn.t_total - scn.t_report, scn.t_sense))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 <= scn.d_star < math.inf:
        raise ConfigError("traffic.d_star must be finite and non-negative, got %g"
                          % scn.d_star)
    if scn.trials < 2:
        raise ConfigError("sim.trials must be at least 2, got %d" % scn.trials)
    if scn.workers < 1:
        raise ConfigError("sim.workers must be at least 1, got %d" % scn.workers)
    if not 0 <= scn.relay < scn.links.n_relays:
        raise ConfigError("sim.relay %d out of range: the scenario has %d relay(s)"
                          % (scn.relay, scn.links.n_relays))
    return scn


def _normal(values) -> bool:
    """Whether each value and its reciprocal are positive normal floats."""
    return all(sys.float_info.min <= v <= 1.0 / sys.float_info.min for v in values)


# Above every product of two draws the Monte Carlo kernels form, at any
# trial count: numpy's ziggurat samplers give standard exponentials below
# 44.5 and normals below 12.3 in magnitude, so an exponential times another,
# or times a halved sum of two squared normals (below 150), stays under 6700.
_DRAW_PRODUCT = 2.0 ** 13


def _check_snr_range(links: LinkSet, primary: PrimaryModel, policy: SecondaryPolicy):
    """Reject a power that puts a noise-normalised mean, or its reciprocal,
    outside the normal float range: the closed forms divide by both, and an
    inf or a 0 there ends in a nan or a traceback. The means are the
    interference tx_power * g / noise_power at every receiver, and each hop
    SNR of `sensing._secondary_hops` at both power limits: the cap p_max
    alone (every primary detected) and its harmonic combination with the
    interference cap (none detected). Also reject a power that lets a
    product of two means, as the estimators form, overflow."""
    scale = primary.tx_power / policy.noise_power
    # on Python floats, which overflow to inf without a warning
    rows = [links.g_pu_dst.tolist(), *links.g_pu_relay.tolist()]
    if not _normal(scale * g for row in rows for g in row):
        raise ConfigError("primary.tx_power must keep each interference mean "
                          "tx_power * g / noise_power and its reciprocal normal floats, "
                          "got %g W" % primary.tx_power)

    snrs = {}  # miss: (first-hop SNRs, second-hop SNRs)
    for key, miss in (("p_max", 0.0), ("interference_cap", 1.0)):
        _, _, first, second = _secondary_hops(links, policy, miss)
        snrs[miss] = first, second
        if not _normal(first + second):
            raise ConfigError("policy.%s must keep each secondary hop's mean SNR "
                              "p * g / noise_power and its reciprocal normal floats, got %g W"
                              % (key, getattr(policy, key)))

    # The estimators multiply two means, and the Monte Carlo kernels two
    # draws besides: each receiver's interference mean, summed over the L
    # primaries, by the SNR of its report hop (1 at the destination; a
    # relay's second hop at miss 1), and each relay's first-hop SNR by its
    # second at p_detect = 1 (miss 0), where the powers are largest. While
    # max(m1, 1) * max(m2, 1) * _DRAW_PRODUCT is finite, so is every partial
    # product, and a closed-form kernel argument that overflows has a tail
    # that rounds to 0 anyway.
    def fits(pairs):
        return all(max(m1, 1.0) * max(m2, 1.0) * _DRAW_PRODUCT <= sys.float_info.max
                   for m1, m2 in pairs)

    sums = [scale * sum(row) for row in rows]
    if not fits(zip(sums, (1.0,) + snrs[1.0][1])):
        raise ConfigError("primary.tx_power must keep each receiver's interference mean, "
                          "summed over the primaries, times its report SNR within the float "
                          "range, with headroom for the Monte Carlo draws, got %g W"
                          % primary.tx_power)
    if not fits(zip(*snrs[0.0])):
        raise ConfigError("policy.p_max must keep each relay's first-hop SNR times its "
                          "second-hop SNR within the float range, with headroom for the "
                          "Monte Carlo draws, got %g W" % policy.p_max)


def _parse_scenario(conf: dict) -> Scenario:
    _check_keys(conf)

    def get(section, key):
        v = conf.get(section, {}).get(key, DEFAULTS.get(section, {}).get(key))
        if v is None:
            raise ConfigError("missing required key %s.%s" % (section, key))
        return v

    def parsed(convert, section, key, *args):
        """convert(section.key's value, *args); a failure names the key."""
        text = get(section, key)
        try:
            return convert(text, *args)
        except ValueError as exc:
            raise ConfigError("%s.%s: %s" % (section, key, exc)) from exc

    n0 = parsed(parse_quantity, "policy", "noise_power")
    if n0 <= 0.0:
        # every dB-relative power would be zero and blamed on its own key
        raise ConfigError("policy.noise_power must be positive, got %g" % n0)

    def qty(section, key):
        return parsed(parse_quantity, section, key, n0)

    d_sr = parsed(parse_list, "links", "d_src_relay")
    d_rd = parsed(parse_list, "links", "d_relay_dst")
    n_relays = len(d_sr)
    # a per-side key overrides the shared d_pu ladder
    given = conf.get("links", {})
    d_pu = parsed(parse_list, "links", "d_pu") if "d_pu" in given else None
    d_pu_src = parsed(parse_list, "links", "d_pu_src") if "d_pu_src" in given else d_pu
    d_pu_dst = parsed(parse_list, "links", "d_pu_dst") if "d_pu_dst" in given else d_pu
    if "d_pu_relay" in given:
        d_pu_relay = parsed(lambda text: [parse_list(row) for row in text.split(";")],
                            "links", "d_pu_relay")
    else:
        d_pu_relay = None if d_pu is None else [[d] * n_relays for d in d_pu]
    if d_pu_src is None or d_pu_dst is None or d_pu_relay is None:
        raise ConfigError("links needs d_pu or the explicit d_pu_src/d_pu_dst/d_pu_relay")

    links = LinkSet(
        d_src_relay=d_sr,
        d_relay_dst=d_rd,
        d_pu_src=d_pu_src,
        d_pu_relay=d_pu_relay,
        d_pu_dst=d_pu_dst,
        alpha=parsed(float, "links", "alpha"),
    )
    primary = PrimaryModel(
        tx_power=qty("primary", "tx_power"),
        duty=parsed(float, "primary", "duty"),
    )
    policy = SecondaryPolicy(
        p_max=qty("policy", "p_max"),
        interference_cap=qty("policy", "interference_cap"),
        noise_power=n0,
        bandwidth=qty("policy", "bandwidth"),
        threshold=qty("policy", "threshold"),
        eta=parsed(float, "policy", "eta"),
        p_circuit_tx=qty("policy", "p_circuit_tx"),
        p_circuit_rx=qty("policy", "p_circuit_rx"),
    )
    # an explicit csi.rho wins, then the Jakes value of doppler_hz and
    # t_diff, then the default rho
    csi = conf.get("csi", {})
    jakes = {k: parsed(parse_quantity, "csi", k) for k in ("doppler_hz", "t_diff") if k in csi}
    if "rho" in csi or "doppler_hz" not in jakes:
        rho = parsed(float, "csi", "rho")
        if not 0.0 <= rho <= 1.0:
            raise ConfigError("csi.rho must lie in [0, 1], got %g" % rho)
    elif "t_diff" not in jakes:
        raise ConfigError("missing required key csi.t_diff: csi.doppler_hz needs the "
                          "estimation lag")
    else:
        rho = rho_from_doppler(jakes["doppler_hz"], jakes["t_diff"])
    return Scenario(
        links=links,
        primary=primary,
        policy=policy,
        rho=rho,
        t_total=qty("frame", "t_total"),
        t_report=qty("frame", "t_report"),
        t_sense=qty("frame", "t_sense"),
        rate=qty("traffic", "rate"),
        gamma_th=qty("traffic", "gamma_th"),
        d_star=parsed(float, "traffic", "d_star"),
        trials=parsed(_whole, "sim", "trials"),
        seed=parsed(int, "sim", "seed"),
        workers=parsed(int, "sim", "workers"),
        relay=parsed(int, "sim", "relay"),
    )


def _whole(text: str) -> int:
    """A count that may be written as a float ('1e6'), but must be whole."""
    v = float(text)
    if not v.is_integer():
        raise ValueError("must be a whole number, got %s" % text)
    return int(v)


def load_config(path: str) -> dict:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeError, configparser.Error) as exc:
        raise ConfigError("cannot read %s: %s" % (path, " ".join(str(exc).split()))) from exc
    return {s: dict(cp.items(s)) for s in cp.sections()}


def merge_layer(conf: dict, layer: dict) -> dict:
    """A copy of conf with a later {section: {key: value}} layer on top.

    A layer that sets links.d_pu but no per-side d_pu_* key drops the
    per-side keys it inherits. A layer that sets csi.doppler_hz or
    csi.t_diff but not csi.rho drops the rho it inherits whenever the merged
    tree has a doppler_hz, so the Jakes value applies. Within one layer the
    specific key (per-side, rho) still wins.
    """
    out = {s: dict(kv) for s, kv in conf.items()}
    for section, entries in layer.items():
        out.setdefault(section, {}).update(entries)
    sides = ("d_pu_src", "d_pu_dst", "d_pu_relay")
    links = layer.get("links", {})
    if "d_pu" in links and not links.keys() & set(sides):
        for key in sides:
            out["links"].pop(key, None)
    csi = layer.get("csi", {})
    if "rho" not in csi and csi.keys() & {"doppler_hz", "t_diff"}:
        if "doppler_hz" in out["csi"]:
            out["csi"].pop("rho", None)
    return out


def apply_overrides(conf: dict, pairs) -> dict:
    """Apply 'section.key=value' strings on top of a config tree; together
    they form one layer for `merge_layer`."""
    layer = {}
    for pair in pairs or ():
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ConfigError("override %r is not of the form section.key=value" % pair)
        dotted, value = pair.split("=", 1)
        section, key = dotted.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in VALID_KEYS or key not in VALID_KEYS.get(section, ()):
            valid = ", ".join(
                "%s.%s" % (s, k) for s in sorted(VALID_KEYS) for k in sorted(VALID_KEYS[s]))
            raise ConfigError("unknown override %s.%s; valid keys: %s" % (section, key, valid))
        layer.setdefault(section, {})[key] = value.strip()
    return merge_layer(conf, layer)


# --- presets ---------------------------------------------------------------

def _ladder(start: float, step: float, n: int) -> str:
    return ", ".join("%.6g" % (start + step * k) for k in range(n))


def preset(name: str) -> dict:
    """Named parameter sets behind the stock figures and the summary table.

    Every entry is an ordinary config tree, so any key can be overridden
    from the command line.
    """
    base = {
        "primary": {"tx_power": "20 dBm", "duty": "0.5"},
        "policy": {
            "p_max": "20 dBm", "interference_cap": "17 dBm",
            "noise_power": "-131 dBm", "bandwidth": "1 MHz",
            "threshold": "17 dBm",
            "p_circuit_tx": "10 dBm", "p_circuit_rx": "9 dBm",
        },
    }

    def merged(**sections):
        return merge_layer(merge_layer(DEFAULTS, base), sections)

    if name == "fig3":
        # single relay reporting at 200 samples; threshold tuned so the
        # three-interferer curve clears 0.9 at 0.4 km
        return merged(
            links={"d_src_relay": "0.1", "d_relay_dst": "0.1",
                   "d_pu": _ladder(0.4, 0.01, 3)},
            primary={"tx_power": "10 dB"},
            policy={"p_max": "10 dB", "interference_cap": "2 dB",
                    "threshold": FIG3_THRESHOLD_DB},
            frame={"t_sense": "0.2 ms"},
        )
    if name == "fig4":
        return merged(
            links={"d_src_relay": "0.1, 0.1", "d_relay_dst": "0.1, 0.1",
                   "d_pu_src": _ladder(0.3, 0.01, 2),
                   "d_pu_relay": "%s; %s" % ("0.3, 0.3", "0.31, 0.31"),
                   "d_pu_dst": _ladder(0.4, 0.01, 2)},
            primary={"tx_power": "30 dB"},
            policy={"p_max": "10 dB", "interference_cap": "6 dB", "threshold": "3 dB"},
            frame={"t_sense": "0.2 ms"},
            csi={"rho": "0.9"},
        )
    if name == "fig6":
        return merged(
            links={"d_src_relay": "0.1, 0.1, 0.1, 0.1",
                   "d_relay_dst": "0.1, 0.1, 0.1, 0.1",
                   "d_pu": _ladder(0.4, 0.01, 3)},
        )
    if name == "fig7":
        return preset("fig6")
    if name == "fig8":
        return merged(
            links={"d_src_relay": "0.2", "d_relay_dst": "0.2",
                   "d_pu": _ladder(0.5, 0.01, 1)},
        )
    if name == "table1":
        return merged(
            links={"d_src_relay": "0.5", "d_relay_dst": "0.5",
                   "d_pu": "1.0"},
            primary={"tx_power": "30 dB"},
            policy={"p_max": "30 dB", "interference_cap": "7 dB", "threshold": "7 dB"},
        )
    if name == "default":
        return preset("fig4")
    raise ConfigError("unknown preset %r; available: fig3, fig4, fig6, fig7, fig8, "
                      "table1, default" % name)


# threshold of the fig3 preset, in dB over the noise floor; fixed by the
# calibration script so the L=3 curve passes 0.9 at 0.4 km
FIG3_THRESHOLD_DB = "33 dB"


def ladder_conf(conf: dict, d_first: float, n_primary: int, step: float = 0.01) -> dict:
    """Rewrite the shared primary distance ladder of a config tree."""
    return merge_layer(conf, {"links": {"d_pu": _ladder(d_first, step, n_primary)}})


def relay_ladder_conf(conf: dict, d_sr_first: float, d_rd_first: float, n_relays: int,
                      step: float = 0.005) -> dict:
    """Rewrite the relay chain ladder of a config tree."""
    return merge_layer(conf, {"links": {"d_src_relay": _ladder(d_sr_first, step, n_relays),
                                        "d_relay_dst": _ladder(d_rd_first, step, n_relays)}})
