#!/usr/bin/env python3
"""Sweep random low-risk populations and compare the three procedures.

For each instance the optimal ordered plan is computed per procedure by
dynamic programming; the sweep tallies the S <= Dp <= D dominance margins.
For small instances it also runs the exhaustive set-partition oracle to
count how often some unordered plan strictly beats the ordered optimum.

Usage:
    python scripts/dominance_sweep.py [--instances 500] [--max-n 40]
                                      [--p-max 0.3] [--seed 7] [--oracle-n 9]
"""

import argparse
import random

from pooltest.model import sort_ascending, validate_probability_vector
from pooltest.optimize import MAX_EXHAUSTIVE_SET, dp_table, exhaustive_set


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=500)
    ap.add_argument("--max-n", type=int, default=40)
    ap.add_argument("--p-max", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--oracle-n", type=int, default=9,
        help="run the set-partition oracle for instances up to this size",
    )
    args = ap.parse_args()
    if args.instances < 1:
        ap.error("--instances must be at least 1")
    if args.max_n < 2:
        ap.error("--max-n must be at least 2")
    if not 0 < args.p_max < 1:
        ap.error("--p-max must lie strictly between 0 and 1")
    if args.oracle_n > MAX_EXHAUSTIVE_SET:
        ap.error(f"--oracle-n must be at most {MAX_EXHAUSTIVE_SET}, the oracle's guard")

    rng = random.Random(args.seed)
    violations = 0
    margins_sdp = []
    margins_dpd = []
    oracle_runs = 0
    ordered_beaten = 0
    worst_gap = 0.0

    for _ in range(args.instances):
        n = rng.randint(2, args.max_n)
        pv = validate_probability_vector([rng.uniform(1e-9, args.p_max) for _ in range(n)])
        spv, _ = sort_ascending(pv)
        s = dp_table(spv, "S").total
        dp_ = dp_table(spv, "Dp").total
        d = dp_table(spv, "D").total
        if s > dp_ + 1e-12 or dp_ > d + 1e-12:
            violations += 1
        margins_sdp.append(dp_ - s)
        margins_dpd.append(d - dp_)
        if n <= args.oracle_n:
            oracle_runs += 1
            unordered = exhaustive_set(pv, "S").total
            if unordered < s - 1e-9:
                ordered_beaten += 1
                worst_gap = max(worst_gap, s - unordered)

    print(f"instances: {args.instances}  (N in [2, {args.max_n}], p in (0, {args.p_max}))")
    print(f"dominance violations: {violations}")
    print(f"mean margin Dp - S: {sum(margins_sdp) / len(margins_sdp):.4f}")
    print(f"mean margin D - Dp: {sum(margins_dpd) / len(margins_dpd):.4f}")
    if oracle_runs:
        print(
            f"set-partition oracle on {oracle_runs} small instances: "
            f"ordered optimum beaten {ordered_beaten} times "
            f"(worst gap {worst_gap:.5f} tests)"
        )
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
