"""Bit-exact pins of the sensing-time optimiser, the outage closed form, the
reporting chain and the frame energies.

Every value is stored as `float.hex`, so a change in the last bit of any
output fails here. The optimiser and outage values were written by the
implementation whose selection terms ran on numpy scalars and whose
`build_trans_coeffs` derived the AF gain normaliser eagerly. The reporting
chain, frame-energy, ECG and frame-simulator values were written by the
implementation that expanded every receiver's interference law, fixed gain
and peak gain on its own and priced every relay's selection odds in each
frame build. The other Monte Carlo means and stderrs were written by the
implementation whose outage carried the selected relay with one np.where
per relay and whose indicator samplers summed 0.0/1.0 float columns. The
`fig4-distinct` values, where each relay has a primary family of its own,
were written by the implementation that built the relays' report constants
apart from the destination's law and derived the secondary powers in each
reader on its own. They are the reference any rewrite of those chains must
keep.
"""

import contextlib
import io

import pytest

from relaysense import cli, energy_opt, mcsim, sensing, transmission
from relaysense.scenario import (apply_overrides, ladder_conf, preset, relay_ladder_conf,
                                 scenario_from_conf)

pytestmark = pytest.mark.pin

# (relays, primaries): (t_sense, multiplier, energy, data, constraint_active),
# the `figure table1` cells
TABLE1 = {
    (1, 1): ("0x1.f59280e9815aep-19", "0x0.0p+0",
             "0x1.79edecbb81942p-15", "0x1.2ede6470dbcc9p+6", False),
    (1, 2): ("0x1.24d8bc97bfcfcp-19", "0x0.0p+0",
             "0x1.ad2c0307e2afbp-16", "0x1.29ec9182e2635p+5", False),
    (1, 3): ("0x1.ae02d17ae7e94p-20", "0x0.0p+0",
             "0x1.37acec377f803p-16", "0x1.960ad37f10b4cp+4", False),
    (1, 4): ("0x1.65f2a45ce0c84p-20", "0x0.0p+0",
             "0x1.f9bcb52cf1590p-17", "0x1.13bf5b3a6b2d8p+4", False),
    (2, 1): ("0x1.4319ac6a7ea63p-19", "0x0.0p+0",
             "0x1.e85e153eebbd7p-16", "0x1.8f351c3d66e40p+5", False),
    (2, 2): ("0x1.7a54e30325486p-20", "0x0.0p+0",
             "0x1.187c06d3af8adp-16", "0x1.a15a151e32c74p+4", False),
    (2, 3): ("0x1.186dbea93cd6ep-20", "0x0.0p+0",
             "0x1.9c87cb1d02e28p-17", "0x1.2639e602583c5p+4", False),
    (2, 4): ("0x1.d469118e2e0cap-21", "0x0.0p+0",
             "0x1.536801e9a74e0p-17", "0x1.baf3afa8ec585p+3", False),
    (3, 1): ("0x1.dc3c075d0db9ep-20", "0x0.0p+0",
             "0x1.6b70b79f08406p-16", "0x1.37ba9b675e26bp+5", False),
    (3, 2): ("0x1.23fc0c21c64b1p-20", "0x0.0p+0",
             "0x1.a5233d3aae1b7p-17", "0x1.0a460597ec915p+4", False),
    (3, 3): ("0x1.a62fdbac083c0p-21", "0x0.0p+0",
             "0x1.36c31205fd87bp-17", "0x1.bda7b7b1d0ecdp+3", False),
    (3, 4): ("0x1.7281ed34459b2p-21", "0x0.0p+0",
             "0x1.03945349d4091p-17", "0x1.09ef39c1db043p+3", False),
    (4, 1): ("0x1.85e3307baebc9p-20", "0x0.0p+0",
             "0x1.2334a22249dfbp-16", "0x1.c28fbffb525efp+4", False),
    (4, 2): ("0x1.cef458f8913c6p-21", "0x0.0p+0",
             "0x1.517aa026820afp-17", "0x1.c92301fee582bp+3", False),
    (4, 3): ("0x1.5b65524332b2ep-21", "0x0.0p+0",
             "0x1.f5a0aace8d608p-18", "0x1.403e06c1201bdp+3", False),
    (4, 4): ("0x1.27b763cb70120p-21", "0x0.0p+0",
             "0x1.a369be6cd8c65p-18", "0x1.d91417422f851p+2", False),
}

# (rho, p_max dB): outage probability, the `figure fig4` grid
FIG4 = {
    (0.5, 0): "0x1.af5f273ec6800p-12",
    (0.5, 2): "0x1.0f79012d5c000p-12",
    (0.5, 4): "0x1.55ba0fc0bf000p-13",
    (0.5, 6): "0x1.ae35d84f94000p-14",
    (0.5, 8): "0x1.0ed5124f42000p-14",
    (0.5, 10): "0x1.550863b9f8000p-15",
    (0.5, 12): "0x1.ad78ff9f30000p-16",
    (0.5, 14): "0x1.0e73157138000p-16",
    (0.5, 16): "0x1.54a5e62e40000p-17",
    (0.5, 18): "0x1.ad1a7f7a20000p-18",
    (0.5, 20): "0x1.0e490bd600000p-18",
    (0.5, 22): "0x1.5485994e40000p-19",
    (0.5, 24): "0x1.ad0a341080000p-20",
    (0.5, 26): "0x1.0e4d315c80000p-20",
    (0.5, 28): "0x1.549bdb7d00000p-21",
    (0.5, 30): "0x1.ad3a662c00000p-22",
    (0.9, 0): "0x1.37ba568823800p-12",
    (0.9, 2): "0x1.8798bcdc42000p-13",
    (0.9, 4): "0x1.ec18e0eb64000p-14",
    (0.9, 6): "0x1.354a5650ea000p-14",
    (0.9, 8): "0x1.84e508b998000p-15",
    (0.9, 10): "0x1.e91bdd8598000p-16",
    (0.9, 12): "0x1.33a47a7468000p-16",
    (0.9, 14): "0x1.8315709820000p-17",
    (0.9, 16): "0x1.e720c0fa20000p-18",
    (0.9, 18): "0x1.3290c54f80000p-18",
    (0.9, 20): "0x1.81ebf3f5c0000p-19",
    (0.9, 22): "0x1.e5e2fd0900000p-20",
    (0.9, 24): "0x1.31e94e7100000p-20",
    (0.9, 26): "0x1.813e98a900000p-21",
    (0.9, 28): "0x1.e533fdc600000p-22",
    (0.9, 30): "0x1.31942de800000p-22",
    (1, 0): "0x1.e58de36b2e000p-13",
    (1, 2): "0x1.303c30393d000p-13",
    (1, 4): "0x1.7d7c1191b2000p-14",
    (1, 6): "0x1.de9b54c9a0000p-15",
    (1, 8): "0x1.2c5ecf91ec000p-15",
    (1, 10): "0x1.792df31938000p-16",
    (1, 12): "0x1.d9ce96c040000p-17",
    (1, 14): "0x1.29b197a2a0000p-17",
    (1, 16): "0x1.7631d02520000p-18",
    (1, 18): "0x1.d67b0a01c0000p-19",
    (1, 20): "0x1.27d7be0080000p-19",
    (1, 22): "0x1.74238a0380000p-20",
    (1, 24): "0x1.d43438d600000p-21",
    (1, 26): "0x1.2696448600000p-21",
    (1, 28): "0x1.72c2aeaa00000p-22",
    (1, 30): "0x1.d2b3707400000p-23",
}


@pytest.mark.parametrize("n_relays, n_pu", sorted(TABLE1))
def test_table1_optima_keep_their_bits(n_relays, n_pu):
    conf = relay_ladder_conf(ladder_conf(preset("table1"), 1.0, n_pu, 0.01),
                             0.5, 0.5, n_relays, 0.005)
    scn = scenario_from_conf(conf)
    opt = energy_opt.optimize_sensing_time(scn.energy_model(), scn.relay, scn.d_star)
    *values, active = TABLE1[n_relays, n_pu]
    assert [float(v).hex() for v in (opt.t_sense, opt.multiplier, opt.energy, opt.data)] \
        == values
    assert opt.constraint_active is active


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.0])
def test_fig4_outage_keeps_its_bits(rho):
    got, want = [], []
    for db in range(0, 31, 2):
        scn = scenario_from_conf(
            apply_overrides(preset("fig4"), ["policy.p_max=%d dB" % db, "csi.rho=%g" % rho]))
        p = scn.policy
        pd = sensing.detection_probability(p.threshold, scn.n_samples, scn.links,
                                           scn.primary, p)
        got.append(float(transmission.outage_probability(
            scn.gamma_th, scn.links, scn.primary, p, pd, scn.rho)).hex())
        want.append(FIG4[rho, db])
    assert got == want


# the report and peak constants a scenario fixes once: the per-sample miss
# probability, relay i's gain normaliser and report SNR, and the peak gains
CHAIN = {
    "fig3": {
        "delta": "0x1.f4525c5486609p-1",
        "u_report": ("0x1.23dc5eaabc4a8p+7",),
        "snr_report": ("0x1.e421c39585ae8p+7",),
        "peak_pu_src": "0x1.0542afacb50abp+6",
        "peak_pu_relay": ("0x1.0542afacb50abp+6",),
    },
    "fig4": {
        "delta": "0x1.0abce7c6211b3p-6",
        "u_report": ("0x1.3779922190046p+14",) * 2,
        "snr_report": ("0x1.c869f343e5975p+7",) * 2,
        "peak_pu_src": "0x1.5c1a9bb1491cfp+7",
        "peak_pu_relay": ("0x1.5c1a9bb1491cfp+7",) * 2,
    },
    "fig6": {
        "delta": "0x1.49d4ae07086ebp-15",
        "u_report": ("0x1.5a40060d23a96p+51",) * 4,
        "snr_report": ("0x1.5495fe13bd716p+56",) * 4,
        "peak_pu_src": "0x1.0542afacb50abp+6",
        "peak_pu_relay": ("0x1.0542afacb50abp+6",) * 4,
    },
    "table1-M4L3": {
        "delta": "0x1.713b0d2b2a698p-13",
        "u_report": ("0x1.5787dda6a6694p+8",) * 4,
        "snr_report": ("0x1.6ab1fd11a1d42p+5", "0x1.5c8b039457de7p+5",
                       "0x1.4f130987d3b15p+5", "0x1.424003213f340p+5"),
        "peak_pu_src": "0x1.c384c6beb3505p+0",
        "peak_pu_relay": ("0x1.c384c6beb3505p+0",) * 4,
    },
    # each relay on a primary family of its own, the destination on a third
    "fig4-distinct": {
        "delta": "0x1.09c4af1bf4fc1p-6",
        "u_report": ("0x1.3779922190046p+14", "0x1.ee19fd5b63e93p+13"),
        "snr_report": ("0x1.c869f343e5975p+7", "0x1.2629d468bd568p+8"),
        "peak_pu_src": "0x1.5c1a9bb1491cfp+7",
        "peak_pu_relay": ("0x1.5c1a9bb1491cfp+7", "0x1.0ddfe3113e072p+7"),
    },
}

# sensing times of the frame-energy and ECG pins, s
T_SENSE = (0.005, 0.05, 0.09)
# closed-form frame energy of the fig6 preset's relay
FIG6 = ("-0x1.8112124abd42fp+2", "0x1.120daa6431900p+4", "0x1.02d5e66cbe343p+6")
# (with, without harvesting) of the fig7 preset's relay
FIG7 = (("-0x1.8112124abd42fp+2", "0x1.0272668b4bcdep-2"),
        ("0x1.120daa6431900p+4", "0x1.46572a4a8eb78p+4"),
        ("0x1.02d5e66cbe343p+6", "0x1.053c8a56aaf8ap+6"))
# primaries: ECG of the `figure fig8` rows
FIG8 = {1: ("0x1.3d3585cdf81b3p-3", "0x1.7c53c3b1ba742p+1", "0x1.d1e69c8684677p+4"),
        2: ("0x1.3e5023e3f96f6p-4", "0x1.7da69df88530ap+0", "0x1.d385b4b6d65b1p+3")}
# frame simulator: (mean, stderr) on relay 1 of fig7 at 0.02 s, 2000 trials, seed 3
FRAME_MC = {"mc_frame_energy": ("-0x1.faadaed785dbcp+0", "0x1.f2ebdeea88de6p-4"),
            "mc_frame_energy_noharv": ("0x1.b23ed7d34b194p+1", "0x1.895078a4d4ad0p-29"),
            "mc_ecg": ("0x1.58550ce0ed677p-5", "0x1.006aeb057aa5cp-10")}
ENERGY_ARGS = ["--trials", "2000", "--set", "primary.tx_power=10 dB",
               "--set", "frame.t_sense=0.001 ms", "energy"]
# its printed lines, without the column padding
ENERGY_OUT = ["t_sense = 1e-06 s, p_detect = 0.983075913",
              "relay  E_total_J      E_noharv_J     ECG            data_bits",
              "0      1.83853e-05    1.83853e-05    5.03954e+07    83.7734",
              "1      1.83853e-05    1.83853e-05    5.03954e+07    83.7734",
              "relay 0 mc: E_total = 1.84228579e-05 +/- 2.53e-06 (z=+0.01)"]


def hexes(values):
    return tuple(float(v).hex() for v in values)


def distinct_conf():
    return apply_overrides(preset("fig4"), ["links.d_pu_relay=0.3, 0.32; 0.31, 0.33"])


def chain_conf(name):
    if name == "table1-M4L3":
        return relay_ladder_conf(ladder_conf(preset("table1"), 1.0, 3, 0.01),
                                 0.5, 0.5, 4, 0.005)
    if name == "fig4-distinct":
        return distinct_conf()
    return preset(name)


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_report_and_peak_constants_keep_their_bits(name):
    scn = scenario_from_conf(chain_conf(name))
    model = scn.energy_model()
    want = CHAIN[name]
    assert float(model.delta).hex() == want["delta"]
    assert hexes(model.report.u_report) == want["u_report"]
    assert hexes(model.report.snr_report) == want["snr_report"]
    assert float(scn.links.peak_pu_src).hex() == want["peak_pu_src"]
    assert hexes(scn.links.peak_pu_relay) == want["peak_pu_relay"]


def test_frame_energies_and_ecg_keep_their_bits():
    scn = scenario_from_conf(preset("fig6"))
    m = scn.energy_model()
    assert hexes(energy_opt.total_energy(m, scn.relay, t) for t in T_SENSE) == FIG6
    scn = scenario_from_conf(preset("fig7"))
    m = scn.energy_model()
    assert tuple(hexes((energy_opt.total_energy(m, scn.relay, t),
                        energy_opt.total_energy_nonharvesting(m, scn.relay, t)))
                 for t in T_SENSE) == FIG7
    for n_pu, want in FIG8.items():
        scn = scenario_from_conf(ladder_conf(preset("fig8"), 0.5, n_pu))
        m = scn.energy_model()
        assert hexes(energy_opt.ecg(m, scn.relay, t) for t in T_SENSE) == want


def test_frame_simulators_and_energy_command_keep_their_bits():
    m = scenario_from_conf(preset("fig7")).energy_model()
    runs = {"mc_frame_energy": lambda: mcsim.mc_frame_energy(m, 1, 0.02, 2000, 3),
            "mc_frame_energy_noharv": lambda: mcsim.mc_frame_energy(
                m, 1, 0.02, 2000, 3, harvesting=False),
            "mc_ecg": lambda: mcsim.mc_ecg(m, 1, 0.02, 2000, 3)}
    for name, run in runs.items():
        est = run()
        assert hexes((est.mean, est.stderr)) == FRAME_MC[name], name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ENERGY_ARGS) == 0
    assert [line.rstrip() for line in out.getvalue().splitlines()] == ENERGY_OUT


# Monte Carlo (mean, stderr), each the same at 1 and 2 workers and on a
# fresh and a held call: mc_outage on fig4 at 2^15 trials, at its own
# threshold for p_max 0 and 14 dB and at a raised one ("busy") where that
# gives no outage, so that every pin counts some; the rest at MC_TRIALS,
# three chunks with a partial last one
MC_TRIALS = 150001
MC = {
    "fig4/rho0.5/p0dB": ("0x1.1000000000000p-11", "0x1.07d077b6a0f4ep-13"),
    "fig4/rho0.5/p14dB": ("0x1.8000000000000p-14", "0x1.bb6437abc32eep-15"),
    "fig4/rho0.9/p0dB": ("0x1.0000000000000p-11", "0x1.ffe1fee2eed3bp-14"),
    "fig4/rho0.9/p14dB": ("0x1.8000000000000p-14", "0x1.bb6437abc32eep-15"),
    "fig4/rho1/p0dB": ("0x1.6000000000000p-12", "0x1.a876938420b43p-14"),
    "fig4/rho1/p14dB": ("0x1.0000000000000p-14", "0x1.6a087c5a8432ep-15"),
    "fig4-busy/rho0.5": ("0x1.6a04000000000p-1", "0x1.498a451936c17p-9"),
    "fig4-busy/rho0.9": ("0x1.5d8c000000000p-1", "0x1.5101aec709ab2p-9"),
    "fig4-busy/rho1": ("0x1.57ec000000000p-1", "0x1.5405a7266dc70p-9"),
    "fig4-busy/rho0.5/p30dB": ("0x1.0e84000000000p-1", "0x1.697633c7c2849p-9"),
    "fig4-busy/rho0.9/p30dB": ("0x1.02a8000000000p-1", "0x1.6a06533001f74p-9"),
    "fig4-busy/rho1/p30dB": ("0x1.f958000000000p-2", "0x1.6a037b4acf529p-9"),
    "fig7-outage-busy": ("0x1.20c4fd2dcc4ffp-1", "0x1.4fa4716c17d7dp-10"),
    "ladder/L2": ("0x1.86e00bb8da380p-7", "0x1.03061eb38b51ap-8"),
    "ladder/L8": ("0x1.b076aa0a8d786p-2", "0x1.002fa1eef2ee3p-6"),
    "ladder/L12": ("0x1.8afe333134d38p-1", "0x1.4cd3ec3e05d43p-7"),
    "fig3-harvest/L3": ("0x1.27d55251c9576p-41", "0x1.8b695f75eb7d8p-50"),
    "fig4-distinct/sample": ("0x1.f7df76dde8d8fp-1", "0x1.5262d2fbbcb08p-12"),
}


def outage_run(conf, trials):
    """fn(workers) -> mc_outage on conf at the scenario's own threshold and
    detection probability."""
    scn = scenario_from_conf(conf)
    p = scn.policy
    pd = sensing.detection_probability(p.threshold, scn.n_samples, scn.links, scn.primary, p)
    return lambda w: mcsim.mc_outage(scn.links, scn.primary, p, scn.gamma_th, pd, scn.rho,
                                     trials, scn.seed, workers=w)


def detection_run(conf, n_samples=None):
    """fn(workers) -> mc_detection on conf at its own threshold, over its
    own sample count unless n_samples is given."""
    scn = scenario_from_conf(conf)
    p = scn.policy
    n = scn.n_samples if n_samples is None else n_samples
    return lambda w: mcsim.mc_detection(scn.links, scn.primary, p, p.threshold, n,
                                        MC_TRIALS, scn.seed, workers=w)


def harvest_run(conf):
    scn = scenario_from_conf(conf)
    p = scn.policy
    pd = sensing.detection_probability(p.threshold, scn.n_samples, scn.links, scn.primary, p)
    return lambda w: mcsim.mc_harvest(scn.links, scn.primary, p, scn.relay, pd, MC_TRIALS,
                                      scn.seed, workers=w)


def fig4_conf(rho, *overrides):
    return apply_overrides(preset("fig4"), ["csi.rho=%g" % rho, *overrides])


MC_RUNS = {
    **{"fig4/rho%g/p%ddB" % (rho, db): lambda rho=rho, db=db: outage_run(
        fig4_conf(rho, "policy.p_max=%d dB" % db), 1 << 15)
       for rho in (0.5, 0.9, 1.0) for db in (0, 14)},
    **{"fig4-busy/rho%g" % rho: lambda rho=rho: outage_run(
        fig4_conf(rho, "traffic.gamma_th=50 dB"), 1 << 15) for rho in (0.5, 0.9, 1.0)},
    **{"fig4-busy/rho%g/p30dB" % rho: lambda rho=rho: outage_run(
        fig4_conf(rho, "policy.p_max=30 dB", "traffic.gamma_th=68 dB"), 1 << 15)
       for rho in (0.5, 0.9, 1.0)},
    # fig7 at its own threshold gives no outage
    "fig7-outage-busy": lambda: outage_run(
        apply_overrides(preset("fig7"), ["traffic.gamma_th=190 dB"]), MC_TRIALS),
    # perfbench's two-relay fig3 ladder
    **{"ladder/L%d" % n_pu: lambda n_pu=n_pu: detection_run(
        relay_ladder_conf(ladder_conf(preset("fig3"), 0.48, n_pu), 0.1, 0.1, 2))
       for n_pu in (2, 8, 12)},
    "fig3-harvest/L3": lambda: harvest_run(ladder_conf(preset("fig3"), 0.4, 3)),
    # one sample: the preset's 200 saturate the frame rate at 1
    "fig4-distinct/sample": lambda: detection_run(distinct_conf(), 1.0),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(MC))
def test_mc_means_and_stderrs_keep_their_bits(name, workers):
    run = MC_RUNS[name]()
    mcsim.clear_held()
    fresh, held = run(workers), run(workers)
    assert hexes((fresh.mean, fresh.stderr)) == MC[name]
    assert hexes((held.mean, held.stderr)) == MC[name]


def test_every_mc_pin_has_a_run():
    assert sorted(MC_RUNS) == sorted(MC)
