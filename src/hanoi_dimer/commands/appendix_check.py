"""appendix-check: the symbolic monotonicity and contraction certificates."""

from __future__ import annotations

import argparse

from .. import cli


def run(args: argparse.Namespace) -> int:
    (run_certificates,) = cli._library("run_certificates")
    reports = run_certificates(args.d, args.which, term_budget=args.term_budget)
    status = 0
    for report in reports:
        if not report.attempted:
            reasons = (note.removeprefix("not attempted: ") for note in report.notes)
            cli._emit(f"{report.name} d={args.d}: NOT ATTEMPTED ({'; '.join(reasons)})")
            status = max(status, 3)
        elif report.ok:
            cli._emit(f"{report.name} d={args.d}: PASS ({report.term_count} terms)")
        else:
            cli._emit(f"{report.name} d={args.d}: FAIL "
                      f"(offending monomial {report.offending_monomial})")
            status = max(status, 1)
    return status
