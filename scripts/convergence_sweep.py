#!/usr/bin/env python3
"""Sweep the bound stage k and watch the certified digits double.

Each stage squares the outer ratio gap, so the certified digit count of the
entropy interval roughly doubles per k.  Useful for picking the cheapest k
for a target accuracy.

Stages whose ratios do not descend r_0 >= r_1 >= ... >= r_d (stage 1 for
d=2), which bounds refuses with IntegrityError, admit no bound and are
listed as such.

Counts are evolved by the transfer scan from d alone, exactly up to the
first stage wider than the working precision and as fixed-width intervals
beyond it (entropy.bounds), so d up to the scan-work cap (d <= 12) runs.

Usage: python scripts/convergence_sweep.py [--d 3] [--k-max 6] [--precision 200]
"""

from __future__ import annotations

import argparse

from hanoi_dimer.entropy import bounds, working_bits
from hanoi_dimer.errors import IntegrityError
from hanoi_dimer.evolve import evolve_to


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--precision", type=int, default=200)
    args = parser.parse_args()

    vectors = evolve_to(args.d, args.k_max,
                        stop_bits=working_bits(args.precision, args.k_max))
    print(f"d={args.d}, precision={args.precision}")
    print(f"{'k':>3} {'certified':>9} {'lambda digits':>13}  shared prefix")
    for k in range(1, args.k_max + 1):
        try:
            result = bounds(args.d, k, vectors, precision=args.precision)
        except IntegrityError:
            print(f"{k:>3} {'-':>9} {'-':>13}  ratios not ordered, no bound")
            continue
        prefix = result.lower.as_decimal()[: result.certified_digits + 2]
        shown = prefix if len(prefix) < 44 else prefix[:41] + "..."
        print(f"{k:>3} {result.certified_digits:>9} "
              f"{result.lambda_digits:>13}  {shown}")


if __name__ == "__main__":
    main()
