#!/usr/bin/env python3
"""Regenerate every stock figure CSV plus the validation report.

Runs the CLI in-process so a single command rebuilds the full result set:

    python3 scripts/reproduce_figures.py --out results
    python3 scripts/reproduce_figures.py --out quick --trials 20000 --no-mc
"""
import argparse
import os
import sys

from relaysense.cli import FIGURES, main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--no-mc", action="store_true",
                    help="analytic columns only (fast)")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    common = []
    for flag, value in (("--trials", args.trials), ("--seed", args.seed),
                        ("--workers", args.workers)):
        if value is not None:
            common += [flag, str(value)]
    if args.no_mc:
        common.append("--no-mc")

    failures = 0
    for name in FIGURES:
        out = os.path.join(args.out, "%s.csv" % name)
        rc = cli_main(common + ["--out", out, "figure", name])
        failures += rc != 0
    if not args.no_mc:
        out = os.path.join(args.out, "validate.csv")
        rc = cli_main(common + ["--out", out, "validate"])
        failures += rc != 0
    rc = cli_main(common + ["optimize"])
    failures += rc != 0

    if failures:
        print("%d step(s) failed" % failures, file=sys.stderr)
        return 1
    print("all outputs written to %s/" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
