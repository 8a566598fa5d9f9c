"""entropy: certified entropy-per-site bounds at one stage, as JSON."""

from __future__ import annotations

import argparse
import sys

from .. import cli


def run(args: argparse.Namespace) -> int:
    (bounds,) = cli._library("bounds")
    # bounds walks one enclosure from stage 0, which it builds once priced
    result = bounds(args.d, args.k, precision=args.precision,
                    digit_cap=args.digit_cap)
    payload = {
        "d": args.d, "k": args.k, "precision": args.precision,
        "lower": result.lower.as_decimal(),
        "upper": result.upper.as_decimal(),
        "certified_digits": result.certified_digits,
        "lambda_digits": result.lambda_digits,
    }
    if result.warning:
        payload["warning"] = result.warning
        print(f"warning: {result.warning}", file=sys.stderr)
    cli._emit_json(payload)
    return 0
