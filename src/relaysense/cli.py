"""Command-line front end: stock figures, MC validation, and one-off queries.

Each checked quantity has one pair function returning its closed form and
its Monte Carlo estimate (None under --no-mc); the figures, `validate` and
the single-quantity commands all read those. Figure grids are declared only
in FIGURES. Every figure writes a CSV with a header row and one row per
swept point: the swept values, then analytic, mc and stderr per pair (the
MC cells empty under --no-mc, for an infinite ECG, or for an ECG whose
draws hold no detection, which a note on stderr counts), formatted to nine
significant digits so reruns diff cleanly. Bad configuration values exit
with code 2.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

from . import energy_opt, harvest, mcsim, sensing, transmission
from .scenario import (ConfigError, Scenario, apply_overrides, ladder_conf, load_config,
                       merge_layer, preset, relay_ladder_conf, scenario_from_conf)

Z_LIMIT = 4.0


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.9g" % v
    return str(v)


def write_csv(path, header, rows):
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror)) from exc


def _check_out(path):
    """Fail as `write_csv` would, before any estimate is computed, when path
    is a directory or its parent directory does not exist. Creates nothing:
    a failure at write time is still `write_csv`'s to report."""
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        reason = errno.ENOENT
    else:
        return
    raise ConfigError("cannot write %s: %s" % (path, os.strerror(reason)))


def _base_conf(args, figure_name=None):
    if figure_name is not None:
        conf = preset(figure_name)
        if args.config:
            conf = merge_layer(conf, load_config(args.config))
    elif args.config:
        conf = load_config(args.config)
    else:
        conf = preset("default")
    flags = {"seed": args.seed, "trials": args.trials, "workers": args.workers}
    return merge_layer(apply_overrides(conf, args.set),
                       {"sim": {k: str(v) for k, v in flags.items() if v is not None}})


def _scenario(args) -> Scenario:
    return scenario_from_conf(_base_conf(args))


# --- analytic/MC pairs ----------------------------------------------------------
# Each returns (closed form, MCEstimate or None when no_mc is set).

def _detection(scn: Scenario, no_mc, lam=None, seed_offset=0):
    lam = scn.policy.threshold if lam is None else lam
    pd = sensing.detection_probability(lam, scn.n_samples, scn.links, scn.primary,
                                       scn.policy)
    return pd, None if no_mc else mcsim.mc_detection(
        scn.links, scn.primary, scn.policy, lam, scn.n_samples, scn.trials,
        scn.seed + seed_offset, workers=scn.workers)


def _outage(scn: Scenario, no_mc, p_detect):
    p_out = transmission.outage_probability(scn.gamma_th, scn.links, scn.primary,
                                            scn.policy, p_detect, scn.rho)
    return p_out, None if no_mc else mcsim.mc_outage(
        scn.links, scn.primary, scn.policy, scn.gamma_th, p_detect, scn.rho,
        scn.trials, scn.seed, workers=scn.workers)


def _harvest(scn: Scenario, no_mc, p_detect):
    """The closed form here is the whole HarvestReport."""
    rep = harvest.avg_harvested_power(scn.links, scn.primary, scn.policy, scn.relay,
                                      p_detect)
    return rep, None if no_mc else mcsim.mc_harvest(
        scn.links, scn.primary, scn.policy, scn.relay, p_detect, scn.trials, scn.seed,
        workers=scn.workers)


def _frame_energy(scn: Scenario, model, t_sense, no_mc, harvesting=True):
    f = model.frame(t_sense)
    closed = f.energy(scn.relay) if harvesting else f.energy_nonharvesting(scn.relay)
    return closed, None if no_mc else mcsim.mc_frame_energy(
        model, scn.relay, t_sense, scn.trials, scn.seed, workers=scn.workers,
        harvesting=harvesting)


def _ecg(scn: Scenario, model, t_sense, no_mc):
    # nothing is harvested (as at duty 0): the ratio is inf and has no MC estimate
    ratio = model.frame(t_sense).ecg(scn.relay)
    if no_mc or math.isinf(ratio):
        return ratio, None
    try:
        return ratio, mcsim.mc_ecg(model, scn.relay, t_sense, scn.trials, scn.seed,
                                   workers=scn.workers)
    except mcsim.NoDetectionError:
        # the draws harvested nothing (no detection): the simulated ratio is undefined
        return ratio, None


# --- figures ------------------------------------------------------------------------
# points(conf, no_mc) yields (swept values, pairs) per row.

def _distances(n):
    return [round(0.1 * (k + 1), 10) for k in range(n)]


_T_GRID = [round(0.005 * (k + 1), 10) for k in range(19)]


def _fig3(conf, no_mc):
    for n_pu in (1, 2, 3):
        for d in _distances(15):
            scn = scenario_from_conf(ladder_conf(conf, d, n_pu))
            yield (d, n_pu), [_detection(scn, no_mc)]


def _fig4(conf, no_mc):
    for rho in (0.5, 0.9, 1.0):
        for db in range(0, 31, 2):
            scn = scenario_from_conf(
                apply_overrides(conf, ["policy.p_max=%d dB" % db, "csi.rho=%g" % rho]))
            yield (db, rho), [_outage(scn, no_mc, _detection(scn, True)[0])]


def _fig6(conf, no_mc):
    for n_pu in (1, 3):
        for d in _distances(10):
            scn = scenario_from_conf(ladder_conf(conf, d, n_pu))
            yield (d, n_pu), [_frame_energy(scn, scn.energy_model(), scn.t_sense, no_mc)]


def _fig7(conf, no_mc):
    scn = scenario_from_conf(conf)
    model = scn.energy_model()
    for t_s in _T_GRID:
        yield (t_s,), [_frame_energy(scn, model, t_s, no_mc),
                       _frame_energy(scn, model, t_s, no_mc, harvesting=False)]


def _fig8(conf, no_mc):
    for n_pu in (1, 2):
        scn = scenario_from_conf(ladder_conf(conf, 0.5, n_pu))
        model = scn.energy_model()
        for t_s in _T_GRID:
            yield (t_s, n_pu), [_ecg(scn, model, t_s, no_mc)]


def _table1(conf, no_mc):
    for n_relays in (1, 2, 3, 4):
        for n_pu in (1, 2, 3, 4):
            scn = scenario_from_conf(relay_ladder_conf(ladder_conf(conf, 1.0, n_pu, 0.01),
                                                       0.5, 0.5, n_relays, 0.005))
            opt = energy_opt.optimize_sensing_time(scn.energy_model(), scn.relay, scn.d_star)
            yield (n_relays, n_pu, opt.t_sense, opt.multiplier, opt.energy, opt.data,
                   opt.constraint_active), []


FIGURES = {
    "fig3": (["d_pu_first_km", "n_primary", "p_detect_analytic", "p_detect_mc", "stderr"],
             _fig3),
    "fig4": (["p_max_db", "rho", "p_out_analytic", "p_out_mc", "stderr"], _fig4),
    "fig6": (["d_pu_first_km", "n_primary", "energy_analytic_j", "energy_mc_j", "stderr"],
             _fig6),
    "fig7": (["t_sense_s", "energy_harv_analytic_j", "energy_harv_mc_j", "stderr_harv",
              "energy_noharv_analytic_j", "energy_noharv_mc_j", "stderr_noharv"], _fig7),
    "fig8": (["t_sense_s", "n_primary", "ecg_analytic", "ecg_mc", "stderr"], _fig8),
    "table1": (["n_relays", "n_primary", "t_sense_star_s", "multiplier",
                "energy_j", "data_bits", "constraint_active"], _table1),
}


def cmd_figure(args):
    header, points = FIGURES[args.name]
    conf = _base_conf(args, args.name)
    out = args.out or ("%s.csv" % args.name)
    _check_out(out)
    rows = []
    unsimulated = 0
    for swept, pairs in points(conf, args.no_mc):
        row = list(swept)
        for ana, est in pairs:
            row += [ana, None, None] if est is None else [ana, est.mean, est.stderr]
            if est is None and not args.no_mc and math.isfinite(ana):
                unsimulated += 1
        rows.append(row)
    write_csv(out, header, rows)
    print("wrote %s (%d rows)" % (out, len(rows)))
    if unsimulated:
        print("note: %d finite closed form(s) have empty MC cells: the simulation drew "
              "no detection to harvest from" % unsimulated, file=sys.stderr)
    return 0


# --- validation --------------------------------------------------------------

def _validate_pairs(scn: Scenario):
    """(name, analytic, MCEstimate) per check; (name, None, None) if it does not apply."""
    pairs = [("detection_%s" % tag,) + _detection(scn, False, scn.policy.threshold * fac, off)
             for off, (fac, tag) in enumerate(((0.5, "lo"), (1.0, "mid"), (2.0, "hi")))]
    pd0 = pairs[1][1]
    pairs.append(("outage",) + _outage(scn, False, pd0))
    rep, est = _harvest(scn, False, pd0)
    pairs.append(("harvest", rep.usable_power, est))

    model = scn.energy_model()
    pairs.append(("frame_energy",) + _frame_energy(scn, model, scn.t_sense, False))
    pairs.append(("frame_energy_noharv",)
                 + _frame_energy(scn, model, scn.t_sense, False, harvesting=False))

    u0 = model.report.u_report[scn.relay]
    if not 1.0 < u0 < math.inf:
        # no continuous report (duty 0), or one too faint to lift u above 1:
        # there is no amplifier level to clip
        return pairs + [("clipped_gain", None, None)]
    thr = sensing.solve_saturation_gain(model.report.relays[scn.relay], u0)
    pairs.append(("clipped_gain", 1.0 / u0,
                  mcsim.mc_clipped_gain(scn.links, scn.primary, scn.policy, scn.relay,
                                        thr, u0, scn.trials, scn.seed,
                                        workers=scn.workers)))
    return pairs


def cmd_validate(args):
    # a bad scenario is reported first, as for every other command
    scn = _scenario(args)
    if args.no_mc:
        print("error: validate compares each closed form with its Monte Carlo estimate, "
              "which --no-mc skips", file=sys.stderr)
        return 2
    if args.out:
        _check_out(args.out)
    rows = []
    worst = 0.0
    for name, ana, est in _validate_pairs(scn):
        if est is None:
            rows.append([name, None, None, None, None, "n/a"])
            print("%-22s not applicable" % name)
            continue
        z = est.z_score(ana)
        worst = max(worst, abs(z))
        status = "pass" if abs(z) <= Z_LIMIT else "FAIL"
        rows.append([name, ana, est.mean, est.stderr, z, status])
        print("%-22s analytic=%-14.6g mc=%-14.6g se=%-10.3g z=%+7.2f  %s"
              % (name, ana, est.mean, est.stderr, z, status))
    if args.out:
        write_csv(args.out, ["check", "analytic", "mc", "stderr", "z", "status"], rows)
    if worst > Z_LIMIT:
        print("validation FAILED (worst |z| = %.2f > %.1f)" % (worst, Z_LIMIT))
        return 1
    print("validation passed (worst |z| = %.2f)" % worst)
    return 0


# --- single-quantity commands -------------------------------------------------

def _print_mc(label, est, ref):
    if est is not None:
        print("%s = %.9g +/- %.3g  (z=%+.2f)" % (label, est.mean, est.stderr,
                                                 est.z_score(ref)))


def cmd_detect(args):
    scn = _scenario(args)
    pd, est = _detection(scn, args.no_mc)
    print("p_detect_analytic = %.9g  (samples=%.9g, threshold=%.6g W)"
          % (pd, scn.n_samples, scn.policy.threshold))
    _print_mc("p_detect_mc      ", est, pd)
    return 0


def cmd_outage(args):
    scn = _scenario(args)
    p_out, est = _outage(scn, args.no_mc, _detection(scn, True)[0])
    print("p_outage_analytic = %.9g  (rho=%.4g, gamma_th=%.6g W)"
          % (p_out, scn.rho, scn.gamma_th))
    _print_mc("p_outage_mc      ", est, p_out)
    return 0


def cmd_harvest(args):
    scn = _scenario(args)
    pd = _detection(scn, True)[0]
    rep, est = _harvest(scn, args.no_mc, pd)
    print("harvest_mean_w   = %.9g" % rep.mean_power)
    print("harvest_usable_w = %.9g  (p_detect=%.6g)" % (rep.usable_power, pd))
    _print_mc("harvest_mc_w    ", est, rep.usable_power)
    return 0


def cmd_energy(args):
    scn = _scenario(args)
    model = scn.energy_model()
    f = model.frame(scn.t_sense)
    print("t_sense = %.6g s, p_detect = %.9g" % (scn.t_sense, f.p_detect))
    print("%-6s %-14s %-14s %-14s %-12s" % ("relay", "E_total_J", "E_noharv_J", "ECG", "data_bits"))
    for i in range(model.n_relays):
        print("%-6d %-14.6g %-14.6g %-14.6g %-12.6g"
              % (i, f.energy(i), f.energy_nonharvesting(i), f.ecg(i), f.data(i)))
    closed, est = _frame_energy(scn, model, scn.t_sense, args.no_mc)
    if est is not None:
        print("relay %d mc: E_total = %.9g +/- %.3g (z=%+.2f)"
              % (scn.relay, est.mean, est.stderr, est.z_score(closed)))
    return 0


def cmd_optimize(args):
    scn = _scenario(args)
    model = scn.energy_model()
    try:
        opt = energy_opt.optimize_sensing_time(model, scn.relay, scn.d_star)
    except energy_opt.InfeasibleDataError as exc:
        print("infeasible: %s" % exc)
        return 1
    # an active floor's optimum needs dual feasibility, a slack one the paper's condition
    ok = (opt.multiplier >= 0.0 if opt.constraint_active
          else model.frame(opt.t_sense).necessary_condition(scn.relay))
    print("t_sense_star = %.9g s" % opt.t_sense)
    print("multiplier   = %.9g" % opt.multiplier)
    print("energy_min   = %.9g J" % opt.energy)
    print("data         = %.9g bits/frame (floor %.9g)" % (opt.data, scn.d_star))
    print("constraint   = %s" % ("active" if opt.constraint_active else "slack"))
    print("slope_check  = %s" % ("satisfied" if ok else "violated"))
    return 0


# --- entry point ---------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="relaysense",
        description="Closed-form and Monte Carlo engine for energy-harvesting "
                    "cooperative spectrum sensing")
    p.add_argument("--config", help="INI scenario file")
    p.add_argument("--seed", type=int, help="simulation seed override")
    p.add_argument("--trials", type=int, help="simulation trials override")
    p.add_argument("--workers", type=int, help="simulation worker threads")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo columns")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override one scenario value (repeatable)")
    sub = p.add_subparsers(dest="command", required=True)
    fig = sub.add_parser("figure", help="regenerate a stock figure CSV")
    fig.add_argument("name", choices=FIGURES)
    sub.add_parser("validate", help="run every analytic/MC pair")
    sub.add_parser("optimize", help="optimise the sensing time")
    sub.add_parser("detect", help="detection probability")
    sub.add_parser("outage", help="outage probability")
    sub.add_parser("harvest", help="harvested power")
    sub.add_parser("energy", help="frame energy breakdown")
    return p


@functools.cache
def _parser():
    """The parser every `main` call uses, built on the first call, not at
    import: a build costs more than most `--no-mc` commands, and
    `parse_args` leaves no state on the parser, so each call parses only
    its own argv."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, not bound into the parser, so that a wrapped
        # `cmd_<command>` (a tracer's) is the one that runs
        return globals()["cmd_" + args.command](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
