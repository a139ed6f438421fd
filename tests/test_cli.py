import contextlib
import dataclasses
import errno
import importlib.util
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from relaysense import cli
from relaysense.harvest import HarvestReport, avg_harvested_power
from relaysense.scenario import (FIG3_THRESHOLD_DB, KEYS, apply_overrides, preset,
                                 scenario_from_conf)


REPO = pathlib.Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


class TestFigureCommand:
    def test_fig3_analytic_only(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["--no-mc", "--out", str(out), "figure", "fig3"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_pu_first_km,n_primary,p_detect_analytic,p_detect_mc,stderr"
        assert len(lines) == 1 + 45
        # analytic-only rows leave the MC columns empty
        assert lines[1].endswith(",,")

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["--no-mc", "figure", "table1"]) == 0
        assert (tmp_path / "table1.csv").exists()

    def test_table1_shape(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run(["--no-mc", "--out", str(out), "figure", "table1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n_relays,n_primary,t_sense_star_s,multiplier")
        assert len(lines) == 1 + 16

    def test_deterministic_bytes_analytic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["--no-mc", "--out", str(a), "figure", "fig7"])
        run(["--no-mc", "--out", str(b), "figure", "fig7"])
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_bytes_with_simulation(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["--trials", "4000", "--seed", "42", "--out"]
        run(base[:2] + ["--seed", "42", "--out", str(a), "figure", "fig3"])
        run(base[:2] + ["--seed", "42", "--out", str(b), "figure", "fig3"])
        run(base[:2] + ["--seed", "42", "--workers", "3", "--out", str(c), "figure", "fig3"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_seed_changes_simulated_column(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["--trials", "4000", "--seed", "1", "--out", str(a), "figure", "fig3"])
        run(["--trials", "4000", "--seed", "2", "--out", str(b), "figure", "fig3"])
        assert a.read_bytes() != b.read_bytes()

    def test_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["--no-mc", "--out", str(a), "figure", "fig3"])
        run(["--no-mc", "--out", str(b), "--set", "policy.threshold=30 dB",
             "figure", "fig3"])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            run(["figure", "fig99"])

    @pytest.mark.parametrize("name", sorted(cli.FIGURES))
    def test_every_figure_with_simulation(self, name, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--trials", "2000", "--seed", "5"]
        assert run(base + ["--workers", "1", "--out", str(a), "figure", name]) == 0
        assert run(base + ["--workers", "2", "--out", str(b), "figure", name]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, *rows = (line.split(",") for line in a.read_text().splitlines())
        assert rows
        for row in rows:
            assert len(row) == len(header)
            # every cell is filled: table1 has no MC columns, the rest
            # carry analytic, mc and stderr per pair
            assert all(row)

    def test_fig8_idle_primary_writes_infinite_ratios(self, tmp_path):
        # duty 0 harvests nothing: the ECG is inf and has no MC estimate
        for no_mc in ([], ["--no-mc"]):
            out = tmp_path / "fig8.csv"
            assert run(no_mc + ["--trials", "2000", "--set", "primary.duty=0",
                                "--out", str(out), "figure", "fig8"]) == 0
            header, *rows = (line.split(",") for line in out.read_text().splitlines())
            assert len(rows) == 38
            for row in rows:
                cells = dict(zip(header, row))
                assert cells["ecg_analytic"] == "inf"
                assert cells["ecg_mc"] == cells["stderr"] == ""

    def test_fig8_without_simulated_detection_keeps_closed_forms(self, tmp_path, capsys):
        # at 175 dB the 2000 draws detect nothing, yet the closed form is finite
        out = tmp_path / "fig8.csv"
        assert run(["--trials", "2000", "--set", "policy.threshold=175dB",
                    "--out", str(out), "figure", "fig8"]) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        assert len(rows) == 38
        for row in rows:
            cells = dict(zip(header, row))
            assert math.isfinite(float(cells["ecg_analytic"]))
            assert cells["ecg_mc"] == cells["stderr"] == ""
        err = capsys.readouterr().err
        assert err.startswith("note: 38 ") and err.count("\n") == 1

    def test_fig8_other_zero_division_is_raised(self, tmp_path, monkeypatch):
        # only "no detection" empties the MC cells; any other division by
        # zero inside the simulator is a fault and must not be read as one
        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli.mcsim, "mc_ecg", broken)
        with pytest.raises(ZeroDivisionError):
            run(["--trials", "2000", "--out", str(tmp_path / "fig8.csv"), "figure", "fig8"])

    def test_bad_override_key(self, tmp_path, capsys):
        rc = run(["--no-mc", "--out", str(tmp_path / "x.csv"),
                  "--set", "policy.thresh=1", "figure", "fig3"])
        assert rc == 2
        assert "valid keys" in capsys.readouterr().err


class TestValidateCommand:
    def test_passes_on_stock_scenario(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        rc = run(["--trials", "20000", "--seed", "7", "--out", str(out), "validate"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "validation passed" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "check,analytic,mc,stderr,z,status"
        assert len(lines) == 1 + 8

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        run(["--trials", "20000", "--seed", "7", "--out", str(a), "validate"])
        run(["--trials", "20000", "--seed", "7", "--out", str(b), "validate"])
        run(["--trials", "20000", "--seed", "7", "--workers", "4", "--out",
             str(c), "validate"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == c.read_bytes()

    def test_detects_analytic_corruption(self, tmp_path, monkeypatch, capsys):
        # negative control: a doubled harvest prediction must blow the z gate
        real = avg_harvested_power

        def corrupted(links, primary, policy, i, p_detect):
            rep = real(links, primary, policy, i, p_detect)
            return HarvestReport(mean_power=2.0 * rep.mean_power,
                                 usable_power=2.0 * rep.usable_power)

        monkeypatch.setattr("relaysense.harvest.avg_harvested_power", corrupted)
        rc = run(["--trials", "20000", "--seed", "7", "validate"])
        assert rc == 1
        assert "validation FAILED" in capsys.readouterr().out

    def test_idle_primary_clipped_gain_not_applicable(self, tmp_path, capsys):
        # duty 0 forwards nothing, so the clipped-gain check has no
        # amplifier level to test: it must say so rather than pass or raise
        out = tmp_path / "val.csv"
        rc = run(["--trials", "20000", "--seed", "7", "--set", "primary.duty=0",
                  "--out", str(out), "validate"])
        assert rc == 0
        assert "clipped_gain           not applicable" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 8
        assert rows[-1] == "clipped_gain,,,,,n/a"

    def test_faint_report_clipped_gain_not_applicable(self, tmp_path):
        # an always-on primary this faint rounds the report gain normaliser
        # to exactly 1, where every clipping level is a root: the check has
        # nothing to test and must say so, in a process that exits cleanly
        out = tmp_path / "val.csv"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "relaysense", "--trials", "2048", "--set", "primary.duty=1",
             "--set", "primary.tx_power=1e-40 W", "--out", str(out), "validate"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "clipped_gain           not applicable" in proc.stdout
        assert out.read_text().splitlines()[-1] == "clipped_gain,,,,,n/a"

    def test_without_monte_carlo_exits_2(self, tmp_path, capsys):
        # every check compares a closed form with its estimate, so there is
        # nothing to run without one
        out = tmp_path / "val.csv"
        assert run(["--no-mc", "--trials", "2048", "--out", str(out), "validate"]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and not out.exists()
        assert "--no-mc" in err and err.count("\n") == 1


# the overrides above whose value does not convert: the message names the key
PARSE_FAILURES = {
    "policy.p_max=abc", "sim.trials=inf", "sim.trials=2.5", "primary.tx_power=1e999",
    "policy.bandwidth=1e999", "policy.noise_power=1e999", "traffic.gamma_th=1e999",
    "traffic.rate=1e999", "primary.duty=abc", "sim.seed=1.5",
}


class TestBadInput:
    @pytest.mark.parametrize("override, command", [
        pytest.param(override, command, id=override) for override, command in (
            ("primary.duty=1.5", "optimize"),
            ("policy.p_max=abc", "optimize"),
            ("frame.t_sense=0.1 us", "optimize"),
            ("sim.trials=1", "optimize"),
            ("sim.relay=7", "optimize"),
            # values that only the energy model or the CSI model would reject
            ("frame.t_report=200 ms", "optimize"),
            ("traffic.rate=0", "optimize"),
            ("csi.rho=1.5", "optimize"),
            ("frame.t_sense=99 ms", "energy"),
            # values that used to run on, warn, or end in a traceback
            ("links.alpha=nan", "detect"),
            ("links.alpha=-1", "detect"),
            ("sim.trials=inf", "detect"),
            ("sim.trials=2.5", "detect"),
            ("traffic.d_star=-1", "optimize"),
            ("traffic.d_star=nan", "optimize"),
            ("sim.workers=-3", "detect"),
            # non-finite quantities
            ("primary.tx_power=1e999", "energy"),
            ("policy.bandwidth=1e999", "detect"),
            ("policy.noise_power=1e999", "detect"),
            ("traffic.gamma_th=1e999", "outage"),
            ("traffic.rate=1e999", "energy"),
            # conversions that do not parse
            ("primary.duty=abc", "detect"),
            ("sim.seed=1.5", "detect"),
        )
    ])
    def test_exits_2_with_message(self, override, command, capsys):
        assert run(["--no-mc", "--set", override, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if override in PARSE_FAILURES:
            assert override.split("=")[0] in err


    def test_overflowing_jakes_argument_exits_2(self, capsys):
        # 2 pi f_D tau overflows to inf; J0 there used to give rho = nan and
        # a nan outage with exit 0
        argv = ["--no-mc", "--set", "csi.doppler_hz=1e200", "--set", "csi.t_diff=1e200 s"]
        assert run(argv + ["outage"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite" in err

    @pytest.mark.parametrize("command", ["validate", "optimize", "detect", "outage",
                                         "harvest", "energy"])
    @pytest.mark.parametrize("override", [
        # a mean gain d**-alpha, or its square (the harvest sums g**2), that
        # leaves the normal float range used to print nan or inf, or end in
        # a traceback
        "links.d_src_relay=1e100, 1e100", "links.d_src_relay=1e-100, 1e-100",
        "links.d_relay_dst=1e100, 1e100", "links.d_pu=1e-100, 2e-100",
        "links.d_pu=1e-75, 2e-75", "links.d_pu=1e80, 2e80",
    ])
    def test_extreme_distance_names_its_key(self, override, command, capsys):
        assert run(["--no-mc", "--set", override, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s" % override.split("=")[0])
        assert err.count("\n") == 1

    @pytest.mark.parametrize("override, command", [
        # a noise-normalised mean, or its reciprocal, that leaves the normal
        # float range used to end in a traceback (an interference mean of
        # inf, so 1/m = 0 in the fixed-gain normaliser) or print nan with
        # exit 0 (an SNR of inf in the selection terms)
        ("primary.tx_power=1e300 W", command) for command in
        ("validate", "optimize", "detect", "outage", "harvest", "energy")] + [
        ("policy.p_max=1e300 W", "outage"), ("policy.p_max=1e300 W", "energy"),
        ("policy.p_max=1e-310 W", "outage"), ("policy.interference_cap=1e-310 W", "optimize"),
    ])
    def test_out_of_range_power_names_its_key(self, override, command, capsys):
        assert run(["--no-mc", "--set", override, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must " % override.split("=")[0])
        assert err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        # a zero noise floor zeroes every dB-relative power, which used to
        # be reported against the first of them
        "policy.noise_power=0",
        # values that parse but that a model object rejects
        "primary.duty=1.5", "links.alpha=-1", "policy.bandwidth=0",
    ])
    def test_rejected_value_names_its_key(self, override, capsys):
        assert run(["--no-mc", "--set", override, "detect"]) == 2
        key, value = override.split("=")
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must " % key)
        assert err.endswith(", got %s\n" % value) and err.count("\n") == 1

    @pytest.mark.parametrize("overrides, key", [
        # rejections that used to name no key; the shared d_pu ladder is
        # reported against the per-side key it fills
        (["links.d_pu=0.4, 0.4000000001"], "links.d_pu_src"),
        (["links.d_src_relay=0.1, 0.1, 0.1"], "links.d_src_relay"),
        (["links.d_pu_src=0.3"], "links.d_pu_src"),
        (["links.d_pu_relay=0.3, 0.3, 0.3; 0.31, 0.31, 0.31"], "links.d_pu_relay"),
        (["links.d_pu=" + ", ".join("%.2f" % (0.4 + 0.01 * k) for k in range(21))],
         "links.d_pu_src"),
        (["csi.doppler_hz=1e200", "csi.t_diff=1e200 s"], "csi.doppler_hz"),
        (["csi.doppler_hz=5", "csi.t_diff=-1 ms"], "csi.t_diff"),
    ], ids=["tied-ladder", "relay-count", "primary-count", "relay-columns", "21-primaries",
            "jakes-overflow", "negative-lag"])
    def test_rejection_names_its_key(self, overrides, key, capsys):
        argv = ["--no-mc"] + [a for pair in overrides for a in ("--set", pair)]
        assert run(argv + ["detect"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        section, name = key.split(".")
        assert name in KEYS[section]
        assert key in [m.group(0) for m in _KEY.finditer(err)]

    def test_threshold_message_admits_zero(self, capsys):
        assert run(["--no-mc", "--set", "policy.threshold=0 W", "detect"]) == 0
        capsys.readouterr()
        assert run(["--no-mc", "--set", "policy.threshold=-1 W", "detect"]) == 2
        assert capsys.readouterr().err == (
            "config error: policy.threshold must be non-negative, got -1\n")

    def test_path_loss_warning_names_its_key(self):
        with pytest.warns(UserWarning, match=r"^links\.alpha 7 outside"):
            scenario_from_conf(apply_overrides(preset("default"), ["links.alpha=7"]))


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


class TestHugePowers:
    @pytest.mark.parametrize("override, command", [
        # admitted powers whose Monte Carlo samples square past the float
        # range used to end in a traceback from the simulated standard error
        ("primary.tx_power=1e150 W", "harvest"),
        ("primary.tx_power=1e150 W", "energy"),
        ("policy.p_circuit_tx=1e200 W", "validate"),
        ("policy.p_circuit_tx=1e200 W", "energy"),
        ("policy.p_circuit_tx=1e200 W", "figure fig7"),
        ("policy.p_circuit_rx=1e200 W", "validate"),
        pytest.param("primary.tx_power=1e150 W", "validate", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the plain clipped-gain oracle misses the rare low-interference "
                   "draws that carry its mean, so validate reports FAILED (exit 1) at "
                   "any strong primary power, 1e10 W included")),
    ])
    def test_exits_0_with_finite_values_or_2_naming_a_key(self, override, command,
                                                          tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        argv = ["--trials", "2048", "--out", str(out_csv), "--set", override]
        code = run(argv + command.split())
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert code in (0, 2), (code, out, err)
        if code == 2:
            assert re.match(r"config error: [a-z_]+\.[a-z_]+ ", err) and err.count("\n") == 1
            return
        printed = out + (out_csv.read_text() if out_csv.exists() else "")
        numbers = [float(x) for x in _NUMBER.findall(printed)]
        assert numbers and all(math.isfinite(x) for x in numbers), printed

    def test_stderr_of_samples_whose_squares_underflow(self, capsys):
        # at 1e150 W the clipped-gain samples are about 1e-167 and their
        # squares underflow, yet the stderr is resolved: finite, positive and
        # a few percent of the mean. The row itself still fails (see above)
        code = run(["--trials", "2048", "--set", "primary.tx_power=1e150 W", "validate"])
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("clipped_gain"))
        fields = dict(re.findall(r"(\w+)=\s*(\S+)", row))
        mc, se, z = (float(fields[k]) for k in ("mc", "se", "z"))
        assert code == 1 and row.endswith("FAIL")
        assert 0.0 < se < math.inf and 1e-3 * mc < se < mc
        assert math.isfinite(z)


# command -> (the largest admitted power of ten or whole dB, one step above),
# each with a threshold that scales with the power, so that the probability
# stays between 0 and 1
PRODUCT_EDGES = {
    "detect": (["primary.tx_power=1e283 W", "policy.threshold=2e285 W"],
               ["primary.tx_power=1e284 W", "policy.threshold=2e286 W"]),
    "outage": (["policy.p_max=1481 dB", "traffic.gamma_th=5e135 W"],
               ["policy.p_max=1482 dB", "traffic.gamma_th=6.3e135 W"]),
}


class TestEstimatorProducts:
    """Powers at which a product of two noise-normalised means, as the
    estimators form it, overflows: each receiver's interference mean times
    its report SNR (set by primary.tx_power) and each relay's first-hop SNR
    times its second (policy.p_max)."""

    @staticmethod
    def _sets(overrides):
        return [arg for override in overrides for arg in ("--set", override)]

    @pytest.mark.parametrize("command", sorted(PRODUCT_EDGES))
    def test_the_admitted_edge_agrees_with_its_estimate(self, command, capsys):
        # an overflow here used to print nan, or an estimate 360 standard
        # errors off its closed form, with exit 0
        argv = ["--trials", str(1 << 15)] + self._sets(PRODUCT_EDGES[command][0]) + [command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 0
        out = capsys.readouterr().out
        analytic = float(re.search(r"_analytic = (\S+)", out).group(1))
        mc, z = (float(v) for v in re.search(r"_mc +=  ?(\S+) .*\(z=(\S+)\)", out).groups())
        assert 0.1 < analytic < 0.9 and 0.1 < mc < 0.9
        assert abs(z) < 3.0, out

    @pytest.mark.parametrize("command, overrides, key", [
        pytest.param(command, PRODUCT_EDGES[command][1], key, id=command)
        for command, key in (("detect", "primary.tx_power"), ("outage", "policy.p_max"))] + [
        # the commands that showed the overflow
        pytest.param("detect", ["primary.tx_power=1e288 W", "policy.threshold=1e288 W"],
                     "primary.tx_power", id="detect-1e288W"),
        pytest.param("outage", ["policy.p_max=1510 dB", "traffic.gamma_th=3.97164e+138 W"],
                     "policy.p_max", id="outage-1510dB"),
        # fig4's scenario (the default one) at the largest whole dB that
        # the float-range check of each mean alone admitted: there
        # (e * a) * t overflowed in the outage kernel
        pytest.param("outage", ["policy.p_max=3036 dB"], "policy.p_max", id="fig4-3036dB"),
    ])
    def test_one_step_past_the_edge_exits_2_naming_its_key(self, command, overrides, key,
                                                           capsys):
        assert run(["--trials", "2048"] + self._sets(overrides) + [command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must " % key) and err.count("\n") == 1


class TestSingleQuantityCommands:
    def test_detect(self, capsys):
        assert run(["--no-mc", "detect"]) == 0
        assert "p_detect_analytic" in capsys.readouterr().out

    def test_detect_idle_primary(self, capsys):
        assert run(["--no-mc", "--set", "primary.duty=0", "detect"]) == 0
        assert "p_detect_analytic = 0  " in capsys.readouterr().out

    def test_outage(self, capsys):
        assert run(["--no-mc", "outage"]) == 0
        assert "p_outage_analytic" in capsys.readouterr().out

    @pytest.mark.parametrize("p_max", ["1e-300", "1e-250", "1e-200"])
    def test_tiny_amplifier_cap_is_certain_outage(self, p_max, capsys):
        # the AF gain normaliser sits near the float limit here, so the
        # outage kernel's argument overflows to inf: a zero tail, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["--no-mc", "--set", "policy.p_max=%s W" % p_max, "outage"]) == 0
        assert capsys.readouterr().out.startswith("p_outage_analytic = 1  ")

    def test_harvest(self, capsys):
        assert run(["--no-mc", "harvest"]) == 0
        out = capsys.readouterr().out
        assert "harvest_mean_w" in out
        assert "harvest_usable_w" in out

    def test_energy(self, capsys):
        assert run(["--no-mc", "energy"]) == 0
        out = capsys.readouterr().out
        assert "E_total_J" in out

    def test_optimize(self, capsys):
        assert run(["--no-mc", "optimize"]) == 0
        out = capsys.readouterr().out
        assert "t_sense_star" in out
        assert "slope_check  = satisfied" in out
        assert "constraint   = slack" in out

    def test_optimize_with_active_floor(self, capsys):
        # a reachable floor above the unconstrained optimum's data
        assert run(["--no-mc", "--set", "traffic.d_star=500",
                    "--set", "links.d_pu_src=1.0, 1.01",
                    "--set", "links.d_pu_dst=1.0, 1.01",
                    "--set", "links.d_pu_relay=1.0, 1.0; 1.01, 1.01",
                    "optimize"]) in (0, 1)

    def test_active_floor_is_checked_by_dual_feasibility(self, capsys):
        # the floor binds at 100 bits on default: the energy slope is negative
        # there, and the check is the multiplier's sign instead
        assert run(["--no-mc", "--set", "traffic.d_star=100", "optimize"]) == 0
        out = capsys.readouterr().out
        assert "constraint   = active" in out
        assert "slope_check  = satisfied" in out

    def test_optimize_infeasible_floor(self, capsys):
        rc = run(["--no-mc", "--set", "traffic.d_star=1e15", "optimize"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().out

    def test_config_file_loads(self, tmp_path, capsys):
        path = tmp_path / "scn.ini"
        path.write_text(
            "[links]\n"
            "d_src_relay = 0.2\nd_relay_dst = 0.2\nd_pu = 0.5\n"
            "[primary]\ntx_power = 20 dBm\nduty = 0.5\n"
            "[policy]\n"
            "p_max = 20 dBm\ninterference_cap = 17 dBm\n"
            "noise_power = -131 dBm\nbandwidth = 1 MHz\nthreshold = 17 dBm\n"
            "eta = 0.35\np_circuit_tx = 10 dBm\np_circuit_rx = 9 dBm\n")
        assert run(["--no-mc", "--config", str(path), "detect"]) == 0
        assert "p_detect_analytic" in capsys.readouterr().out


class TestSharedParser:
    def test_no_option_carries_over_between_calls(self, capsys, monkeypatch):
        # `main` parses every call with one parser: each call's options are
        # its own, whatever ran before it in the process
        seen = []
        real = cli._base_conf

        def spy(args, figure_name=None):
            seen.append((args.set, args.seed, args.no_mc))
            return real(args, figure_name)

        monkeypatch.setattr(cli, "_base_conf", spy)
        first = ["--no-mc", "--set", "primary.duty=0.3", "--seed", "7", "detect"]
        assert run(first) == 0
        once = capsys.readouterr().out
        assert run(["detect"]) == 0
        assert "p_detect_mc" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run(["nosuch"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert run(first) == 0
        assert capsys.readouterr().out == once
        assert seen == [(["primary.duty=0.3"], 7, True), (None, None, False),
                        (["primary.duty=0.3"], 7, True)]

    def test_a_handler_wrapped_after_the_first_call_runs(self, capsys, monkeypatch):
        # the parser is built once per process, so it must not bind the
        # handlers it saw then: a wrapper set later, as a tracer sets one,
        # is what the next call runs
        assert run(["--no-mc", "detect"]) == 0
        once = capsys.readouterr().out
        calls = []
        real = cli.cmd_detect

        def wrapper(args):
            calls.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "cmd_detect", wrapper)
        assert run(["--no-mc", "detect"]) == 0
        assert calls == ["detect"]
        assert capsys.readouterr().out == once


class TestSampleCount:
    """Every command counts t_sense * W samples, unrounded, as the frame does."""

    def test_sub_sample_slot_exits_2_naming_its_key(self, capsys):
        # rounded to one sample, 0.6 us used to pass
        assert run(["--no-mc", "--set", "frame.t_sense=0.6us", "detect"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: frame.t_sense ") and err.count("\n") == 1
        assert "shorter than one sample" in err

    def test_one_sample_slot_runs(self, capsys):
        assert run(["--no-mc", "--set", "frame.t_sense=1us", "detect"]) == 0
        assert "(samples=1, " in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig3", "default", "fig6", "fig8", "table1"])
    @pytest.mark.parametrize("t_sense", ["2.5 us", "2.6 us", "12.5 us"])
    def test_commands_read_the_frames_detection(self, name, t_sense):
        # detect, outage, harvest and validate's detection_mid row read
        # _detection; at 2.5 us on default it printed 0.999734949 (2 samples)
        # where the frame gave 0.999966181 (2.5)
        scn = scenario_from_conf(apply_overrides(preset(name), ["frame.t_sense=" + t_sense]))
        pd = cli._detection(scn, True)[0]
        assert pd.hex() == scn.energy_model().frame(scn.t_sense).p_detect.hex()

    @pytest.mark.pin
    def test_detect_and_energy_print_one_p_detect(self, capsys):
        assert run(["--no-mc", "--set", "frame.t_sense=2.5us", "detect"]) == 0
        assert "p_detect_analytic = 0.999966181  (samples=2.5, " in capsys.readouterr().out
        assert run(["--no-mc", "--set", "frame.t_sense=2.5us", "energy"]) == 0
        assert "p_detect = 0.999966181\n" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the alternating subset sum cancels at "
                          "near-tied interference means (Monte Carlo at 2e5 trials: "
                          "0.5863 +/- 0.0011)")
def test_near_tied_primaries_print_a_probability(capsys):
    assert run(["--no-mc", "--set", "links.d_pu=0.4, 0.40000000012000003, 0.40000000024000004",
                "--set", "policy.threshold=45 dB", "--set", "frame.t_sense=0.001 ms",
                "detect"]) == 0
    printed = capsys.readouterr().out
    pd = float(re.match(r"p_detect_analytic = (\S+) ", printed).group(1))
    assert 0.0 <= pd <= 1.0  # prints -3.53109283


# a probability the commands print: the value after p_detect or p_outage
_PROBABILITY = re.compile(r"\bp_\w*\s*=\s*([^\s,)]+)")
_KEY = re.compile(r"\b(%s)\.\w+" % "|".join(KEYS))


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


class TestCommandBoundary:
    """On the default preset, over sensing slots from one sample to the
    listen window, any duty and a threshold in dB over the noise floor, each
    command exits 0 printing finite probabilities, or exits 2 with one
    stderr line that names a section.key, and never ends in a traceback;
    and detect and energy print one p_detect."""

    COMMANDS = ("detect", "outage", "harvest", "energy", "optimize")
    DRAWS = dict(
        # log-uniform over [1/W, t_listen) = [1 us, 99 ms)
        t_sense=st.floats(0.0, 1.0, exclude_max=True).map(lambda u: 1e-6 * 99e3 ** u),
        duty=st.sampled_from([0.0, 5e-324, 1e-300]) | st.floats(0.0, 1.0),
        threshold_db=st.floats(-40.0, 100.0),
    )

    def _probabilities(self, t_sense, duty, threshold_db):
        """{command: the probabilities it printed} over the commands that
        exit 0; every other command must exit 2 naming a key."""
        argv = ["--no-mc", "--set", "frame.t_sense=%r s" % t_sense,
                "--set", "primary.duty=%r" % duty,
                "--set", "policy.threshold=%r dB" % threshold_db]
        printed = {}
        for command in self.COMMANDS:
            rc, out, err = _run_quietly(argv + [command])
            if rc == 2:
                assert err.startswith("config error: ") and err.count("\n") == 1, err
                assert _KEY.search(err), err
                continue
            assert rc == 0, (command, out, err)
            printed[command] = _PROBABILITY.findall(out)
            assert len(printed[command]) == (command != "optimize"), out
        return printed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**DRAWS)
    def test_every_command_exits_cleanly(self, t_sense, duty, threshold_db):
        printed = self._probabilities(t_sense, duty, threshold_db)
        assert all(math.isfinite(float(p)) for ps in printed.values() for p in ps), printed
        assert printed.get("detect") == printed.get("energy")

    @pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                       reason="ROADMAP item 4: a CDF summed as atom + sum of "
                              "prob * (1 - survival) exceeds 1 when the activity "
                              "mixture's probabilities round to a sum above 1")
    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(**DRAWS)
    # detect prints p_detect = -6.66e-16 here, as at every threshold from
    # 62 dB up at duty 0.19-0.21, and outage ends in a ValueError traceback
    @example(t_sense=1e-6, duty=0.2, threshold_db=62.0)
    def test_printed_probabilities_lie_in_the_unit_interval(self, t_sense, duty,
                                                            threshold_db):
        printed = self._probabilities(t_sense, duty, threshold_db)
        assert all(0.0 <= float(p) <= 1.0 for ps in printed.values() for p in ps), printed


# a complete scenario file; D and U stand for links.d_pu and primary.duty
SCENARIO_INI = ("[links]\nd_src_relay = 0.2\nd_relay_dst = 0.2\nd_pu = D\n"
                "[primary]\ntx_power = 20 dBm\nduty = U\n"
                "[policy]\np_max = 20 dBm\ninterference_cap = 17 dBm\n"
                "noise_power = -131 dBm\nbandwidth = 1 MHz\nthreshold = 17 dBm\n"
                "eta = 0.35\np_circuit_tx = 10 dBm\np_circuit_rx = 9 dBm\n")


def _ini(text):
    def write(tmp_path):
        path = tmp_path / "scn.ini"
        path.write_text(text)
        return str(path)
    return write


class TestFileErrors:
    """A --config file that cannot be read or parsed, or an --out path that
    cannot be written, exits 2 with one stderr line naming the path. A % in
    a value is read as written, so the value's own check names its key."""

    CONFIG = ["--config", "{}", "detect"]

    @pytest.mark.parametrize("make, args, named", [
        (lambda tmp_path: str(tmp_path / "missing.ini"), CONFIG, None),
        (str, CONFIG, None),
        (_ini("d_pu = 0.5\n"), CONFIG, None),
        (_ini("[links]\nalpha = 4\n[links]\nalpha = 3\n"), CONFIG, None),
        (_ini(SCENARIO_INI.replace("= D", "= %(x)s").replace("= U", "= 0.5")), CONFIG,
         "links.d_pu"),
        (_ini(SCENARIO_INI.replace("= D", "= 0.5").replace("= U", "= 50%")), CONFIG,
         "primary.duty"),
        (lambda tmp_path: str(tmp_path / "missing" / "x.csv"),
         ["--out", "{}", "--no-mc", "figure", "table1"], None),
        (str, ["--out", "{}", "--trials", "2048", "validate"], None),
    ], ids=["config-missing", "config-directory", "config-no-section", "config-repeated-section",
            "config-interpolation", "config-percent", "out-missing-directory", "out-directory"])
    def test_exits_2_with_one_line(self, make, args, named, tmp_path, capsys):
        path = make(tmp_path)
        assert run([a.format(path) for a in args]) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (named or path) in err

    @pytest.mark.parametrize("make, args", [
        (str, ["--out", "{}", "--trials", "2048", "validate"]),
        (lambda tmp_path: str(tmp_path / "missing" / "x.csv"),
         ["--out", "{}", "--trials", "20000", "figure", "fig4"]),
    ], ids=["validate-directory", "fig4-missing-directory"])
    def test_unwritable_out_computes_nothing(self, make, args, tmp_path, monkeypatch,
                                             capsys):
        # the path is checked before the first estimate: these used to print
        # every validate row, or compute all 48 fig4 rows, before exiting 2
        def estimate(*args, **kwargs):
            raise AssertionError("an estimate was computed")

        monkeypatch.setattr(cli, "_detection", estimate)
        monkeypatch.setattr(cli, "_outage", estimate)
        path = make(tmp_path)
        assert run([a.format(path) for a in args]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and err == "config error: cannot write %s: %s\n" % (
            path, os.strerror(errno.EISDIR if os.path.isdir(path) else errno.ENOENT))
        assert list(tmp_path.iterdir()) == []

    def test_bad_scenario_is_reported_before_out(self, tmp_path, capsys):
        assert run(["--set", "primary.duty=1.5", "--out", str(tmp_path), "validate"]) == 2
        assert capsys.readouterr().err.startswith("config error: primary.duty must ")


class TestCalibrateThresholdScript:
    def test_reports_the_stock_threshold(self, capsys):
        # the script's default target is the one the fig3 preset names (0.9)
        spec = importlib.util.spec_from_file_location(
            "calibrate_detection_threshold",
            REPO / "scripts" / "calibrate_detection_threshold.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main([]) == 0
        out = capsys.readouterr().out
        assert "detection >= 0.900: " in out
        assert out.rstrip().endswith(": %s" % FIG3_THRESHOLD_DB)


class TestImportCost:
    def test_cli_loads_no_scipy(self):
        # importing scipy.special alone cost about 0.29 s of start-up
        # (2-vCPU VM, scipy 1.17); the special functions are ported instead
        code = ("import sys, relaysense.cli\n"
                "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    COMMANDS = (["--no-mc", "detect"], ["--no-mc", "outage"], ["--no-mc", "energy"],
                ["--no-mc", "optimize"], ["--trials", "2000", "validate"])

    def test_commands_run_with_scipy_blocked(self, tmp_path, capsys):
        # sys.modules['scipy'] = None makes every scipy import raise; each
        # command must print exactly what it prints in this process
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from relaysense import cli\n"
                "for argv in %r:\n"
                "    print(cli.main(argv), file=sys.stderr)\n" % (self.COMMANDS,))
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes = [run(argv) for argv in self.COMMANDS]
        assert proc.stderr.split() == [str(rc) for rc in codes]
        # validate exits 1 on the known clipped-gain oracle row at 2000 trials
        assert codes[:4] == [0, 0, 0, 0] and codes[4] in (0, 1)
        assert proc.stdout == capsys.readouterr().out


class TestReproduceFiguresScript:
    def test_writes_every_figure(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_figures.py"),
             "--no-mc", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in cli.FIGURES:
            csv = tmp_path / ("%s.csv" % name)
            assert len(csv.read_text().splitlines()) > 1, name
