#!/usr/bin/env python3
"""Print the common ratio limit per dimension with its certified digits.

The consecutive class ratios r_0 > ... > r_d squeeze onto one limit; the
common truncated prefix of r_d(n) and r_0(n) at the last computed stage is
certified (r_0 descends and r_d ascends onto the limit from opposite sides).

Stages advance by the transfer scans, which need only d, so any d up to the
scan-work cap (d <= 12) runs.  Stage 3 at d=10 takes about 4 s and every
later stage makes the counts 11 times as long, so pass a small --n-max with
a large --d-max.

Usage: python scripts/ratio_limit_scan.py [--d-max 5] [--n-max 5]
"""

from __future__ import annotations

import argparse

from hanoi_dimer.evolve import evolve_to
from hanoi_dimer.ratio_facts import check_contraction, ratios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-max", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=5)
    args = parser.parse_args()

    for d in range(2, args.d_max + 1):
        vectors = evolve_to(d, args.n_max)
        report = check_contraction(ratios(vectors), limit_places=80)
        marker = "" if report.ok else "  [ordering violations!]"
        print(f"d={d}: {report.limit_digits}{marker}")


if __name__ == "__main__":
    main()
