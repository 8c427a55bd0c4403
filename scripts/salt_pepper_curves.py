#!/usr/bin/env python3
"""Overturn-rate curves for dispersed noise, global versus regional voting.

Both schemes face the exact same flip draws trial by trial, so any gap in
the curves is the scheme, not the noise. The printed threshold is the rate
where the overturn frequency first crosses one half.
"""

import argparse
import pathlib
import sys

from regionvote.breakdown import (
    GlobalScheme,
    GridGenSpec,
    RegionalScheme,
    estimate_threshold,
    generate_grid,
    salt_pepper_threshold,
    threshold_curve_to_csv,
)
from regionvote.grid import Partition
from regionvote.seeding import stream_seed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=50, help="grid side length")
    ap.add_argument("--a-frac", type=float, default=0.55, help="leader vote share")
    ap.add_argument("--region-edge", type=int, default=5)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rates", type=float, nargs="+",
                    default=[0.06, 0.07, 0.08, 0.085, 0.09, 0.095, 0.10, 0.11, 0.12])
    ap.add_argument("--csv", type=str, default=None,
                    help="prefix for <prefix>_global.csv and <prefix>_regional.csv")
    args = ap.parse_args()

    if args.region_edge < 1 or args.side % args.region_edge != 0:
        ap.error("region edge must be positive and divide the grid side")
    if args.csv and not pathlib.Path(args.csv).parent.is_dir():
        ap.error(f"--csv directory {pathlib.Path(args.csv).parent} does not exist")
    noise_seed = stream_seed(args.seed, "saltpepper.noise")
    try:
        grid = generate_grid(
            GridGenSpec(args.side, args.side, args.a_frac, "uniform_random",
                        seed=stream_seed(args.seed, "saltpepper.grid"))
        )
        curves = {
            "global": salt_pepper_threshold(
                grid, GlobalScheme(), tuple(args.rates), trials=args.trials, seed=noise_seed
            ),
            "regional": salt_pepper_threshold(
                grid, RegionalScheme(Partition.square(args.region_edge)),
                tuple(args.rates), trials=args.trials, seed=noise_seed,
            ),
        }
    except ValueError as exc:  # a bad side, share, rate or trial count, or a lost grid
        ap.error(str(exc))

    print(f"{'rate':>8}  {'global':>8}  {'regional':>8}")
    for pg, pr in zip(curves["global"], curves["regional"]):
        print(f"{pg.rate:>8.4f}  {pg.overturn_frequency:>8.3f}  {pr.overturn_frequency:>8.3f}")
    thresholds = {name: estimate_threshold(curve) for name, curve in curves.items()}
    for name, value in thresholds.items():
        shown = "never crossed 1/2" if value is None else f"{value:.4f}"
        print(f"{name} threshold: {shown}")
    if None not in thresholds.values():
        diff = abs(thresholds["global"] - thresholds["regional"])
        print(f"threshold gap: {diff:.4f}")

    if args.csv:
        for name, curve in curves.items():
            path = f"{args.csv}_{name}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(threshold_curve_to_csv(curve))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
