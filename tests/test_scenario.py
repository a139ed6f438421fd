import math
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from relaysense.scenario import (
    ConfigError,
    apply_overrides,
    ladder_conf,
    load_config,
    parse_list,
    parse_quantity,
    preset,
    relay_ladder_conf,
    scenario_from_conf,
)
from relaysense import cli, scenario
from relaysense.transmission import build_trans_coeffs, rho_from_doppler

N0 = 10 ** (-131.0 / 10.0) * 1e-3


class TestParseQuantity:
    def test_dbm(self):
        assert parse_quantity("20 dBm") == pytest.approx(0.1, rel=1e-12)
        assert parse_quantity("-131 dBm") == pytest.approx(N0, rel=1e-12)

    def test_dbw(self):
        assert parse_quantity("0 dBW") == pytest.approx(1.0, rel=1e-12)
        assert parse_quantity("-30 dBW") == pytest.approx(1e-3, rel=1e-12)

    def test_db_relative_to_noise(self):
        assert parse_quantity("3 dB", N0) == pytest.approx(N0 * 10 ** 0.3, rel=1e-12)
        assert parse_quantity("0 dB", N0) == pytest.approx(N0, rel=1e-12)

    def test_db_without_reference_rejected(self):
        with pytest.raises(ValueError):
            parse_quantity("3 dB")

    def test_si_suffixes(self):
        assert parse_quantity("1 MHz") == 1e6
        assert parse_quantity("20 ms") == pytest.approx(0.02)
        assert parse_quantity("100 kbps") == 1e5
        assert parse_quantity("500 m") == pytest.approx(0.5)
        assert parse_quantity("0.4 km") == pytest.approx(0.4)
        assert parse_quantity("250 uW") == pytest.approx(2.5e-4)

    def test_bare_number(self):
        assert parse_quantity("0.5") == 0.5
        assert parse_quantity("1e-3") == 1e-3

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_quantity("fast")
        with pytest.raises(ValueError):
            parse_quantity("3 parsecs")

    @pytest.mark.parametrize("text", ["1e999", "-1e999 dBm", "4000 dBW", "1e308 kbps"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="not finite"):
            parse_quantity(text, N0)


class TestParseList:
    def test_comma_separated(self):
        assert parse_list("0.4, 0.41, 0.42") == [0.4, 0.41, 0.42]

    def test_units_inside_list(self):
        assert parse_list("0.4 km, 500 m") == [0.4, 0.5]

    def test_single_item(self):
        assert parse_list("1.0") == [1.0]


def _outcome(parse, text, noise_power):
    """What parse makes of text: the float.hex of its value or values, or
    the type and message of the ValueError it raises."""
    try:
        got = parse(text, noise_power)
    except ValueError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in got] if isinstance(got, list) else got.hex()


def _mixed_case(word, flips):
    return "".join(c.upper() if flip else c for c, flip in zip(word, flips + [False] * len(word)))


_UNITS = sorted(oracles.REFERENCE_SCALES) + ["db", "dbm", "dbw", "parsecs", "x", "e", "µw",
                                             "ｍs", "é"]
# signed numbers with an optional fraction and exponent, three draws in
# four; else a malformed number or a string that float() accepts and a
# quantity must not: nan, inf, an overflowing exponent, underscores and
# non-ASCII digits
_NUMBER = st.builds("{}{}{}{}".format, st.sampled_from(["", "-", "+"]),
                    st.text("0123456789", min_size=1, max_size=4),
                    st.sampled_from(["", ".", ".25", ".0"]),
                    st.sampled_from(["", "e3", "E-7", "e+12", "E308", "e999", "e-400"]))
_NUMBERS = st.one_of(_NUMBER, _NUMBER, _NUMBER, st.sampled_from(
    ["nan", "-inf", "inf", "Infinity", "1_000", "١٢", "５", "0x10", "1.2.3", "--1", "..1",
     "1e", "1E-", ".", "+", ""]))
_UNIT_TEXT = st.builds(_mixed_case, st.sampled_from(_UNITS), st.lists(st.booleans(), max_size=5))
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\n"])
_QUANTITIES = st.builds("{}{}{}{}{}".format, _SPACE, _NUMBERS, _SPACE, _UNIT_TEXT, _SPACE)
_LISTS = st.builds(
    lambda items, seps: "".join(i + s for i, s in zip(items, seps + [""] * len(items))),
    st.lists(_QUANTITIES, min_size=1, max_size=4),
    st.lists(st.sampled_from([",", " ", ", ", ",,", " , ", "\t", ";"]), min_size=4,
             max_size=4))
_ANY_TEXT = st.text(" ,.+-eE0123456789kmsWdBµé_\t", max_size=12)


class TestParserMatchesReference:
    """`parse_quantity` and `parse_list` give the reference parser's bits,
    or its ValueError with the same message, on any text."""

    @given(text=st.one_of(_QUANTITIES, _ANY_TEXT), noise_power=st.sampled_from([None, N0]))
    @example(text="20 dBm", noise_power=None)
    @example(text="3 dB", noise_power=None)
    @example(text=" -4000 DBW ", noise_power=N0)
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_quantity(self, text, noise_power):
        assert _outcome(parse_quantity, text, noise_power) \
            == _outcome(oracles.reference_parse_quantity, text, noise_power)

    @given(text=st.one_of(_LISTS, _ANY_TEXT), noise_power=st.sampled_from([None, N0]))
    @example(text="0.4 km, 0.5 km", noise_power=None)
    @example(text="0.4 , km 500 M", noise_power=None)
    @example(text=" , ", noise_power=None)
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_list(self, text, noise_power):
        assert _outcome(parse_list, text, noise_power) \
            == _outcome(oracles.reference_parse_list, text, noise_power)


class TestOverrides:
    def test_applies_value(self):
        conf = apply_overrides(preset("table1"), ["primary.duty=0.3"])
        assert conf["primary"]["duty"] == "0.3"

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="valid keys"):
            apply_overrides(preset("table1"), ["primary.dutycycle=0.3"])

    def test_malformed_pair(self):
        with pytest.raises(ConfigError):
            apply_overrides(preset("table1"), ["just-a-word"])

    def test_original_untouched(self):
        base = preset("table1")
        apply_overrides(base, ["primary.duty=0.3"])
        assert base["primary"]["duty"] == "0.5"


class TestScenarioFromConf:
    def test_presets_all_resolve(self):
        for name in ("fig3", "fig4", "fig6", "fig7", "fig8", "table1", "default"):
            scn = scenario_from_conf(preset(name))
            assert scn.policy.noise_power == pytest.approx(N0, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("fig99")

    def test_shared_pu_distances_broadcast(self):
        conf = preset("fig6")
        scn = scenario_from_conf(conf)
        assert scn.links.n_relays == 4
        assert scn.links.n_primary == 3
        # one row per transmitter, constant across relays
        for row in scn.links.d_pu_relay:
            assert len(set(row)) == 1

    def test_explicit_pu_sides_override_broadcast(self):
        conf = apply_overrides(preset("fig6"), ["links.d_pu_src=0.7, 0.71, 0.72"])
        scn = scenario_from_conf(conf)
        assert scn.links.d_pu_src == (0.7, 0.71, 0.72)
        assert scn.links.d_pu_dst == (0.4, 0.41, 0.42)

    def test_missing_noise_floor(self):
        conf = preset("table1")
        del conf["policy"]["noise_power"]
        with pytest.raises(ConfigError, match="noise_power"):
            scenario_from_conf(conf)

    def test_missing_geometry(self):
        conf = preset("table1")
        del conf["links"]["d_pu"]
        with pytest.raises(ConfigError):
            scenario_from_conf(conf)

    def test_unknown_section_rejected(self):
        conf = preset("table1")
        conf["turbo"] = {"boost": "11"}
        with pytest.raises(ConfigError, match="unknown config section"):
            scenario_from_conf(conf)

    def test_defaults(self):
        scn = scenario_from_conf(preset("table1"))
        assert scn.t_total == pytest.approx(0.1)
        assert scn.t_report == pytest.approx(0.001)
        assert scn.seed == 1234
        assert scn.trials == 1_000_000
        assert scn.workers == 1
        assert scn.d_star == 0.0

    def test_sample_count(self):
        scn = scenario_from_conf(preset("fig3"))
        assert scn.n_samples == 200

    def test_sample_count_is_continuous(self):
        # t_sense * W unrounded, the count the frame and the optimiser use
        conf = apply_overrides(preset("fig3"), ["frame.t_sense=2.6 us"])
        scn = scenario_from_conf(conf)
        assert scn.policy.bandwidth == 1e6
        assert scn.n_samples == 2.6

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig6", "fig7", "fig8", "table1",
                                      "default"])
    @pytest.mark.parametrize("t_sense", [None, "2.5 us", "2.6 us", "12.5 us"])
    def test_sample_count_is_the_product(self, name, t_sense):
        conf = preset(name)
        if t_sense is not None:
            conf = apply_overrides(conf, ["frame.t_sense=" + t_sense])
        scn = scenario_from_conf(conf)
        assert scn.n_samples == scn.t_sense * scn.policy.bandwidth
        if t_sense is None:
            # a whole float on every preset, so the stock outputs keep their bits
            assert scn.n_samples in (200.0, 20000.0)

    def test_subsample_slot_rejected(self):
        # 0.4 samples at 1 MHz: rejected when the scenario is built
        conf = apply_overrides(preset("fig3"), ["frame.t_sense=0.4 us"])
        with pytest.raises(ConfigError, match="shorter than one sample"):
            scenario_from_conf(conf)

    def test_rho_resolution(self):
        scn = scenario_from_conf(preset("fig4"))
        assert scn.rho == 0.9
        conf = apply_overrides(preset("fig4"), ["csi.rho=0.5"])
        assert scenario_from_conf(conf).rho == 0.5

    REQUIRED_ONLY = (
        "[links]\nd_src_relay = 0.2\nd_relay_dst = 0.2\nd_pu = 0.5\n"
        "[primary]\ntx_power = 20 dBm\nduty = 0.5\n"
        "[policy]\np_max = 20 dBm\ninterference_cap = 17 dBm\n"
        "noise_power = -131 dBm\nbandwidth = 1 MHz\nthreshold = 17 dBm\n"
        "p_circuit_tx = 10 dBm\np_circuit_rx = 9 dBm\n")

    def test_required_keys_only_take_the_defaults(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(self.REQUIRED_ONLY)
        conf = load_config(str(path))
        # every optional key spelled out with its documented default
        spelled = apply_overrides(conf, [
            "links.alpha=4", "policy.eta=0.35", "csi.rho=0.75",
            "frame.t_total=100 ms", "frame.t_report=1 ms", "frame.t_sense=20 ms",
            "traffic.rate=100 kbps", "traffic.gamma_th=3 dB", "traffic.d_star=0",
            "sim.trials=1000000", "sim.seed=1234", "sim.workers=1", "sim.relay=0"])
        assert scenario_from_conf(conf) == scenario_from_conf(spelled)

    def test_explicit_doppler_is_not_overridden_by_default_rho(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(self.REQUIRED_ONLY + "[csi]\ndoppler_hz = 10 Hz\nt_diff = 10 ms\n")
        scn = scenario_from_conf(load_config(str(path)))
        assert scn.rho == rho_from_doppler(10.0, 0.01)

    def test_explicit_rho_wins(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(self.REQUIRED_ONLY
                        + "[csi]\nrho = 0.3\ndoppler_hz = 1 kHz\nt_diff = 1 s\n")
        assert scenario_from_conf(load_config(str(path))).rho == 0.3

    def test_later_doppler_replaces_inherited_rho(self, tmp_path):
        # default and fig4 spell out a rho, and the others inherit the
        # `csi.rho` default; a later layer that sets the Doppler inputs
        # without a rho must get the Jakes value, not either rho
        jakes = rho_from_doppler(100.0, 1e-3)
        doppler = ["csi.doppler_hz=100 Hz", "csi.t_diff=1 ms"]
        for name in ("default", "fig3", "fig4", "fig6"):
            conf = apply_overrides(preset(name), doppler)
            assert scenario_from_conf(conf).rho == jakes, name
        path = tmp_path / "csi.ini"
        path.write_text("[csi]\ndoppler_hz = 100 Hz\nt_diff = 1 ms\n")
        args = cli.build_parser().parse_args(["--config", str(path), "figure", "fig6"])
        assert scenario_from_conf(cli._base_conf(args, "fig6")).rho == jakes
        # within one layer an explicit rho still wins, and a t_diff with no
        # doppler_hz anywhere leaves the inherited rho in force
        conf = apply_overrides(preset("fig4"), ["csi.rho=0.3"] + doppler)
        assert scenario_from_conf(conf).rho == 0.3
        conf = apply_overrides(preset("fig4"), ["csi.t_diff=1 ms"])
        assert scenario_from_conf(conf).rho == 0.9

    def test_later_d_pu_replaces_inherited_sides(self, tmp_path):
        # default spells out d_pu_src, d_pu_dst and d_pu_relay; a later layer
        # that sets only the shared ladder must place every primary on it
        conf = apply_overrides(preset("default"), ["links.d_pu=0.9, 0.95"])
        links = scenario_from_conf(conf).links
        assert links.d_pu_src == links.d_pu_dst == (0.9, 0.95)
        assert links.d_pu_relay == ((0.9, 0.9), (0.95, 0.95))
        path = tmp_path / "ladder.ini"
        path.write_text("[links]\nd_pu = 0.9, 0.95\n")
        args = cli.build_parser().parse_args(["--config", str(path), "figure", "fig4"])
        assert scenario_from_conf(cli._base_conf(args, "fig4")).links == links
        # within one layer a per-side key still wins over d_pu
        conf = apply_overrides(preset("default"), ["links.d_pu=0.9, 0.95",
                                                   "links.d_pu_src=0.5, 0.6"])
        links = scenario_from_conf(conf).links
        assert links.d_pu_src == (0.5, 0.6)
        assert links.d_pu_dst == (0.4, 0.41)

    def test_doppler_needs_t_diff(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(self.REQUIRED_ONLY + "[csi]\ndoppler_hz = 10 Hz\n")
        with pytest.raises(ConfigError, match="csi.t_diff"):
            scenario_from_conf(load_config(str(path)))

    def test_rejects_out_of_range_rho(self):
        for rho in ("1.2", "-0.1", "nan"):
            conf = apply_overrides(preset("fig4"), ["csi.rho=" + rho])
            with pytest.raises(ConfigError, match=r"csi\.rho must lie in \[0, 1\]"):
                scenario_from_conf(conf)

    def test_energy_model_roundtrip(self):
        scn = scenario_from_conf(preset("table1"))
        model = scn.energy_model()
        assert model.t_listen == pytest.approx(scn.t_total - scn.t_report)


class TestLadderHelpers:
    def test_primary_ladder(self):
        conf = ladder_conf(preset("fig6"), 0.7, 2)
        scn = scenario_from_conf(conf)
        assert scn.links.n_primary == 2
        assert scn.links.d_pu_src == (0.7, 0.71)

    def test_primary_ladder_drops_explicit_sides(self):
        conf = ladder_conf(preset("fig4"), 0.7, 2)
        scn = scenario_from_conf(conf)
        assert scn.links.d_pu_src == (0.7, 0.71)
        assert scn.links.d_pu_dst == (0.7, 0.71)

    def test_relay_ladder(self):
        conf = relay_ladder_conf(preset("table1"), 0.5, 0.5, 3)
        scn = scenario_from_conf(conf)
        assert scn.links.n_relays == 3
        assert scn.links.d_src_relay == (0.5, 0.505, 0.51)


class TestLoadConfig(object):
    def test_ini_roundtrip(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(
            "[links]\n"
            "d_src_relay = 0.2\n"
            "d_relay_dst = 0.2\n"
            "d_pu = 0.5  ; one interferer\n"
            "[primary]\n"
            "tx_power = 20 dBm\n"
            "duty = 0.5\n"
            "[policy]\n"
            "p_max = 20 dBm\n"
            "interference_cap = 17 dBm\n"
            "noise_power = -131 dBm\n"
            "bandwidth = 1 MHz\n"
            "threshold = 17 dBm\n"
            "eta = 0.35\n"
            "p_circuit_tx = 10 dBm\n"
            "p_circuit_rx = 9 dBm\n")
        conf = load_config(str(path))
        scn = scenario_from_conf(conf)
        assert scn.links.d_pu_src == (0.5,)
        assert scn.primary.tx_power == pytest.approx(0.1, rel=1e-12)


STOCK_PRESETS = ("fig3", "fig4", "fig6", "fig7", "fig8", "table1", "default")


class TestSnrRangeCheck:
    """The float-range check bounds the very hop SNRs the estimators read."""

    @pytest.mark.parametrize("name", STOCK_PRESETS)
    def test_checks_the_data_phase_snrs_at_both_ends(self, name, monkeypatch):
        checked = []
        real = scenario._normal

        def spy(values):
            values = list(values)
            checked.append(values)
            return real(values)

        monkeypatch.setattr(scenario, "_normal", spy)
        scn = scenario_from_conf(preset(name))
        # the interference means, then the hop SNRs at miss 0 and at miss 1
        assert len(checked) == 3
        for got, p_detect in zip(checked[1:], (1.0, 0.0)):
            co = build_trans_coeffs(scn.links, scn.primary, scn.policy, p_detect)
            assert [v.hex() for v in got] == [v.hex() for v in co.snr_first + co.snr_means]


class TestReadmeConfigTable:
    """README's Configuration table is the `KEYS` table: the same keys, in
    the same order, with the same defaults."""

    def test_rows_match_the_keys(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            m = re.match(r"\| `(\w+)\.(\w+)` \| ([^|]+) \|", line)
            if m:
                rows.setdefault(m.group(1), {})[m.group(2)] = m.group(3).strip()
        assert [(s, list(keys)) for s, keys in rows.items()] == \
            [(s, list(keys)) for s, keys in scenario.KEYS.items()]
        for s, keys in scenario.KEYS.items():
            for key, (_, default) in keys.items():
                want = ("required", "none") if default is None else ("`%s`" % default,)
                assert rows[s][key] in want, (s, key)
