"""Scenario assembly: unit-aware config parsing and named figure presets.

A scenario is a flat section.key tree of strings (INI file, preset, or
command-line override) that gets parsed once into the typed model objects.
Each key's parser and default are one row of `KEYS`.
Powers can be given in watts, dBm, or dB relative to the configured noise
floor; times, rates, frequencies and distances take the usual suffixes.
"""

from __future__ import annotations

import configparser
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .energy_opt import EnergyModel
from .fading import LinkSet, PrimaryModel
from .sensing import SecondaryPolicy, _secondary_hops
from .transmission import rho_from_doppler

_UNIT_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")
_LIST_SEP = re.compile(r"[,\s]+")
_UNIT_WORD = re.compile(r"[a-zA-Z]+")

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
    if m is None:
        raise ValueError("cannot parse quantity %r" % text)
    number, unit = m.groups()
    val = float(number)
    key = unit.lower()
    scale = _SCALES.get(key)
    if scale is not None:
        out = val * scale
    else:
        try:
            if key == "dbm":
                out = 10.0 ** ((val - 30.0) / 10.0)
            elif key == "dbw":
                out = 10.0 ** (val / 10.0)
            elif key == "db":
                if noise_power is None:
                    raise ValueError("dB values are relative to the noise floor, "
                                     "which is not set yet")
                out = noise_power * 10.0 ** (val / 10.0)
            else:
                raise ValueError("unknown unit %r in %r" % (unit, text))
        except OverflowError:
            out = math.inf
    if not (math.isfinite(val) and math.isfinite(out)):
        raise ValueError("quantity %r is not finite" % text)
    return out


def parse_list(text: str, noise_power: float = None):
    """Parse a comma- or space-separated list of quantities; a unit split
    from its number by spaces ('0.4 km, 0.5 km') joins the item before it."""
    merged = []
    for p in _LIST_SEP.split(str(text).strip()):
        if not p:
            continue
        if merged and _UNIT_WORD.fullmatch(p):
            merged[-1] += " " + p
        else:
            merged.append(p)
    return [parse_quantity(p, noise_power) for p in merged]


class ConfigError(ValueError):
    pass


class _Parser(NamedTuple):
    """How a key's text becomes its value: convert(text), or convert(text,
    n0) with the noise floor n0 for a quantity that may be given in dB over
    it (floor). A converter raises ValueError on text it cannot read. Then,
    if check is set, a value v for which check(v) is false is rejected with
    message % v."""

    convert: Callable
    floor: bool = False
    check: Callable = None
    message: str = None


def _whole(text: str) -> int:
    """A count that may be written as a float ('1e6'), but must be whole."""
    v = float(text)
    if not v.is_integer():
        raise ValueError("must be a whole number, got %s" % text)
    return int(v)


def _km_rows(text: str):
    """The ';'-separated rows of a distance matrix, each a `parse_list`."""
    return [parse_list(row) for row in text.split(";")]


_FLOAT, _INT, _KM = _Parser(float), _Parser(int), _Parser(parse_list)
_QUANTITY = _Parser(parse_quantity, floor=True)
_POSITIVE = "must be positive, got %g"

# Every config key: section -> key -> (parser, default text), read in this
# order. A default of None marks a key without one: it is required, apart
# from the d_pu ladder and its per-side keys, and the Jakes pair doppler_hz
# and t_diff, which are read only when set.
KEYS = {
    "links": {
        "d_src_relay": (_KM, None), "d_relay_dst": (_KM, None),
        "d_pu": (_KM, None), "d_pu_src": (_KM, None), "d_pu_dst": (_KM, None),
        "d_pu_relay": (_Parser(_km_rows), None),
        "alpha": (_FLOAT, "4"),
    },
    "primary": {"tx_power": (_QUANTITY, None), "duty": (_FLOAT, None)},
    "policy": {
        "p_max": (_QUANTITY, None), "interference_cap": (_QUANTITY, None),
        "noise_power": (_Parser(parse_quantity, True, lambda v: v > 0.0, _POSITIVE), None),
        "bandwidth": (_QUANTITY, None), "threshold": (_QUANTITY, None),
        "eta": (_FLOAT, "0.35"),
        "p_circuit_tx": (_QUANTITY, None), "p_circuit_rx": (_QUANTITY, None),
    },
    "csi": {
        "doppler_hz": (_Parser(parse_quantity), None), "t_diff": (_Parser(parse_quantity), None),
        "rho": (_Parser(float, False, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1], got %g"),
                "0.75"),
    },
    "frame": {"t_total": (_QUANTITY, "100 ms"), "t_report": (_QUANTITY, "1 ms"),
              "t_sense": (_QUANTITY, "20 ms")},
    "traffic": {
        "rate": (_Parser(parse_quantity, True, lambda v: v > 0.0, _POSITIVE), "100 kbps"),
        "gamma_th": (_QUANTITY, "3 dB"),
        "d_star": (_Parser(float, False, lambda v: 0.0 <= v < math.inf,
                           "must be finite and non-negative, got %g"), "0"),
    },
    "sim": {
        "trials": (_Parser(_whole, False, lambda v: v >= 2, "must be at least 2, got %d"),
                   "1000000"),
        "seed": (_INT, "1234"),
        "workers": (_Parser(int, False, lambda v: v >= 1, "must be at least 1, got %d"), "1"),
        "relay": (_INT, "0"),
    },
}

# the per-side primary distances, each of which overrides the shared d_pu ladder
_SIDES = ("d_pu_src", "d_pu_dst", "d_pu_relay")


def _check_keys(conf: dict):
    for section, entries in conf.items():
        if section not in KEYS:
            raise ConfigError(
                "unknown config section %r; valid sections: %s"
                % (section, ", ".join(sorted(KEYS))))
        for key in entries:
            if key not in KEYS[section]:
                raise ConfigError(
                    "unknown key %r in section [%s]; valid keys: %s"
                    % (key, section, ", ".join(sorted(KEYS[section]))))


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

    Every bad value raises ConfigError: one that its `KEYS` row or a model
    object rejects, a report slot outside the frame, a sensing slot shorter
    than one sample or beyond the listen window, a relay index out of
    range, or a power whose noise-normalised means leave the float range,
    or whose products as the estimators form them overflow
    (`_check_snr_range`).
    """
    try:
        scn = _parse_scenario(conf)
        _check_snr_range(scn.links, scn.primary, scn.policy)
        scn.n_samples  # raises on a sensing slot shorter than one sample
        if not 0.0 < scn.t_report < scn.t_total:
            raise ConfigError("need 0 < frame.t_report < frame.t_total, got %g s and %g s"
                              % (scn.t_report, scn.t_total))
        if scn.t_sense >= scn.t_total - scn.t_report:
            raise ConfigError("frame.t_sense must lie inside the listen window (0, %g) s, "
                              "got %g s" % (scn.t_total - scn.t_report, scn.t_sense))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 <= scn.relay < scn.links.n_relays:
        raise ConfigError("sim.relay %d out of range: the scenario has %d relay(s)"
                          % (scn.relay, scn.links.n_relays))
    return scn


_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_TINY_RECIPROCAL = 1.0 / _TINY


def _normal(values) -> bool:
    """Whether each value and its reciprocal are positive normal floats."""
    return all(_TINY <= v <= _TINY_RECIPROCAL for v in values)


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
    # once per family of the destination and the relays, on Python floats,
    # which overflow to inf without a warning. A product with scale rounds
    # monotonically, so the ends of a family's descending row bound the
    # rest; the sums run in input order, as each receiver's row lists them
    families = set(links.family[1:])
    rows = [links.canonical_gains[f].tolist() for f in families]
    if not _normal([scale * row[0] for row in rows] + [scale * row[-1] for row in rows]):
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
    # second at p_detect = 1 (miss 0), where the powers are largest.
    sums = {f: scale * sum(links.family_gains[f].tolist()) for f in families}
    if not _fits(zip([sums[f] for f in links.family[-1:] + links.family[1:-1]],
                     (1.0,) + snrs[1.0][1])):
        raise ConfigError("primary.tx_power must keep each receiver's interference mean, "
                          "summed over the primaries, times its report SNR within the float "
                          "range, with headroom for the Monte Carlo draws, got %g W"
                          % primary.tx_power)
    if not _fits(zip(*snrs[0.0])):
        raise ConfigError("policy.p_max must keep each relay's first-hop SNR times its "
                          "second-hop SNR within the float range, with headroom for the "
                          "Monte Carlo draws, got %g W" % policy.p_max)


def _fits(pairs) -> bool:
    """Whether max(m1, 1) * max(m2, 1) * _DRAW_PRODUCT is finite for each
    pair of means: then so is every partial product, and a closed-form
    kernel argument that overflows has a tail that rounds to 0 anyway."""
    return all(max(m1, 1.0) * max(m2, 1.0) * _DRAW_PRODUCT <= _HUGE for m1, m2 in pairs)


# the keys read only when set: the d_pu ladder and its per-side keys
_LADDER = ("d_pu",) + _SIDES
# the policy keys after the noise floor, which is read first
_POLICY = tuple(k for k in KEYS["policy"] if k != "noise_power")


def _read(conf: dict, section: str, keys, n0) -> dict:
    """{key: value} for each of keys, in order: section.key's text in conf,
    or the key's `KEYS` default, read by its row's `_Parser` with noise
    floor n0. A missing required key, a failed parse or a rejected value
    raises a ConfigError that names section.key."""
    given, rows, out = conf.get(section, {}), KEYS[section], {}
    for key in keys:
        (convert, floor, check, message), default = rows[key]
        text = given.get(key, default)
        if text is None:
            raise ConfigError("missing required key %s.%s" % (section, key))
        try:
            value = convert(text, n0) if floor else convert(text)
        except ValueError as exc:
            raise ConfigError("%s.%s: %s" % (section, key, exc)) from exc
        if check is not None and not check(value):
            raise ConfigError("%s.%s %s" % (section, key, message % value))
        out[key] = value
    return out


def _parse_scenario(conf: dict) -> Scenario:
    _check_keys(conf)
    # the noise floor first: dB-relative powers are multiples of it
    n0 = _read(conf, "policy", ("noise_power",), None)["noise_power"]
    # the d_pu ladder and its per-side keys are read when set; a per-side key wins
    given = conf.get("links", {})
    links = _read(conf, "links", [k for k in KEYS["links"] if k in given or k not in _LADDER],
                  n0)
    d_pu = links.pop("d_pu", None)
    if d_pu is not None:
        links.setdefault("d_pu_src", d_pu)
        links.setdefault("d_pu_dst", d_pu)
        links.setdefault("d_pu_relay", [[d] * len(links["d_src_relay"]) for d in d_pu])
    if not links.keys() >= set(_SIDES):
        raise ConfigError("links needs d_pu or the explicit d_pu_src/d_pu_dst/d_pu_relay")
    links = LinkSet(**links)
    primary = PrimaryModel(**_read(conf, "primary", KEYS["primary"], n0))
    policy = SecondaryPolicy(noise_power=n0, **_read(conf, "policy", _POLICY, n0))
    # an explicit csi.rho wins, then the Jakes value of doppler_hz and
    # t_diff, then the default rho
    csi = conf.get("csi", {})
    jakes = _read(conf, "csi", [k for k in ("doppler_hz", "t_diff") if k in csi], n0)
    if "rho" in csi or "doppler_hz" not in jakes:
        rho = _read(conf, "csi", ("rho",), n0)["rho"]
    elif "t_diff" not in jakes:
        raise ConfigError("missing required key csi.t_diff: csi.doppler_hz needs the "
                          "estimation lag")
    else:
        rho = rho_from_doppler(**jakes)
    return Scenario(links=links, primary=primary, policy=policy, rho=rho,
                    **_read(conf, "frame", KEYS["frame"], n0),
                    **_read(conf, "traffic", KEYS["traffic"], n0),
                    **_read(conf, "sim", KEYS["sim"], n0))


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
    links = layer.get("links", {})
    if "d_pu" in links and not links.keys() & set(_SIDES):
        for key in _SIDES:
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
        layer.setdefault(section.strip(), {})[key.strip()] = value.strip()
    _check_keys(layer)
    return merge_layer(conf, layer)


# --- presets ---------------------------------------------------------------

def _ladder(start: float, step: float, n: int) -> str:
    return ", ".join("%.6g" % (start + step * k) for k in range(n))


def preset(name: str) -> dict:
    """Named parameter sets behind the stock figures and the summary table.

    Every entry is an ordinary config tree that sets what its figure sets;
    the parse supplies every other key's default. Any key can be overridden
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
        return merge_layer(base, sections)

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
        return merged(links={"d_src_relay": "0.1, 0.1, 0.1, 0.1",
                             "d_relay_dst": "0.1, 0.1, 0.1, 0.1", "d_pu": _ladder(0.4, 0.01, 3)})
    if name == "fig7":
        return preset("fig6")
    if name == "fig8":
        return merged(links={"d_src_relay": "0.2", "d_relay_dst": "0.2",
                             "d_pu": _ladder(0.5, 0.01, 1)})
    if name == "table1":
        return merged(
            links={"d_src_relay": "0.5", "d_relay_dst": "0.5", "d_pu": "1.0"},
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
