"""ratios: the consecutive-class ratio trace, rendered to fixed places."""

from __future__ import annotations

import argparse

from .. import cli
from ..errors import CapExceeded


def run(args: argparse.Namespace) -> int:
    evolve_to, ratios, render_quotient, eps_ratio_table_value = cli._library(
        "evolve_to", "ratios", "render_quotient", "eps_ratio_table_value")
    digits = args.digits
    # render_quotient is quadratic in its places: price the rendering before
    # evolving, d+2 values per stage 1..max_n and one quotient per stage pair
    rendered = digits * (args.max_n * (args.d + 2) + max(args.max_n - 1, 0))
    if rendered > args.digit_cap:
        raise CapExceeded(
            f"rendering d={args.d} ratios to stage {args.max_n} at {digits} "
            f"places prints {rendered} digits, above the cap of "
            f"{args.digit_cap}; raise it with --digit-cap")
    vectors = evolve_to(args.d, args.max_n, digit_cap=args.digit_cap)
    trace = ratios(vectors)
    stages = [
        {
            "n": n,
            "r": [render_quotient(*trace.ratio_pair(n, j), digits)
                  for j in range(args.d + 1)],
            "eps": render_quotient(*trace.eps_pair(n), digits),
        }
        for n in trace.stages
    ]
    quotients = [
        {
            "n": n,
            "value": render_quotient(*trace.eps_ratio_pair(n), digits),
            "table_value": eps_ratio_table_value(trace, n),
        }
        for n in trace.stages[:-1]
    ]
    if args.format == "csv":
        cli._emit(",".join(["n"] + [f"r{j}" for j in range(args.d + 1)] + ["eps"]))
        for row in stages:
            cli._emit(",".join([str(row["n"])] + row["r"] + [row["eps"]]))
    else:
        cli._emit_json({
            "d": args.d, "digits": digits,
            "stages": stages, "eps_ratios": quotients,
        })
    return 0
