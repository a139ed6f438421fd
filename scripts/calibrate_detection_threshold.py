#!/usr/bin/env python3
"""Sweep the energy-detector threshold for the three-interferer sensing
scenario and report the largest whole-dB setting whose detection probability
at the 0.4 km anchor still clears the target.

This is how the stock sensing preset's 33 dB threshold was chosen.
"""
import argparse
import sys

from relaysense import sensing
from relaysense.scenario import ladder_conf, preset, scenario_from_conf


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target", type=float, default=0.9,
                    help="required detection probability at the anchor")
    ap.add_argument("--lo", type=int, default=20, help="first threshold, dB")
    ap.add_argument("--hi", type=int, default=45, help="last threshold, dB")
    args = ap.parse_args(argv)

    conf = preset("fig3")
    best = None
    print("threshold_db  p_detect(0.4km)  p_detect(1.0km)  p_detect(1.5km)")
    for db in range(args.lo, args.hi + 1):
        row = []
        for d in (0.4, 1.0, 1.5):
            c = ladder_conf(conf, d, 3)
            c["policy"]["threshold"] = "%d dB" % db
            scn = scenario_from_conf(c)
            row.append(sensing.detection_probability(
                scn.policy.threshold, scn.n_samples, scn.links,
                scn.primary, scn.policy))
        print("%8d      %.6f         %.6f         %.6f" % (db, *row))
        if row[0] >= args.target:
            best = db
    if best is None:
        print("no threshold in [%d, %d] dB reaches %.3f at the anchor"
              % (args.lo, args.hi, args.target), file=sys.stderr)
        return 1
    print("\nlargest threshold with anchor detection >= %.3f: %d dB"
          % (args.target, best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
