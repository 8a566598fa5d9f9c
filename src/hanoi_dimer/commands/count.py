"""count: the exact class counts of one stage, as JSON or CSV."""

from __future__ import annotations

import argparse

from .. import cli


def run(args: argparse.Namespace) -> int:
    (evolve_to,) = cli._library("evolve_to")
    vectors = evolve_to(args.d, args.n, digit_cap=args.digit_cap)
    v = vectors[args.n]
    if args.format == "csv":
        heads = ["d", "n"] + [f"c{k}" for k in range(args.d + 2)] + ["M"]
        row = [str(args.d), str(args.n)] + [str(c) for c in v.counts] + [str(v.m)]
        cli._emit(",".join(heads))
        cli._emit(",".join(row))
    else:
        cli._emit_json({
            "d": args.d, "n": args.n,
            "c": [str(c) for c in v.counts], "M": str(v.m),
        })
    return 0
