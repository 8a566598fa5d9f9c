"""Run one hanoi-dimer command with a span around each public layer call.

Usage (hanoi_dimer must be importable, e.g. PYTHONPATH=src):

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- COMMAND [ARGS...]

Each wrapper replaces the name the caller looks up (``cli.generate`` as well
as ``recursion_gen.generate``), so the library itself is unchanged.
``cli.main`` runs with stdout captured; when it returns, the spans are
written to SPANS_JSON, the captured output is copied to stdout and the
process exits with main's status.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from spans import Tracer

from hanoi_dimer import appendix_check, cli, evolve, matching_oracle, recursion_gen
from hanoi_dimer.intutil import digit_count

# (module, attribute, inclusive): inclusive spans are kernel drill-downs whose
# time also stays in the calling layer's self time.
TARGETS = (
    (cli, "generate", False),
    (recursion_gen, "generate", False),
    (appendix_check, "generate", False),
    (cli, "save_system", False),
    (recursion_gen, "save_system", False),
    (recursion_gen, "load_system", False),
    (cli, "evolve_to", False),
    (evolve, "step", False),
    (evolve, "evaluate_int", True),
    (cli, "ratios", False),
    (cli, "check_contraction", False),
    (cli, "bounds", False),
    (cli, "boundary_class_vector", False),
    (matching_oracle, "count_matchings", True),
    (cli, "build", False),
    (appendix_check, "substitute", True),
)


def _poly_terms(system, _args):
    terms = sum(p.term_count() for p in system.class_polys)
    return {"recursion_gen.poly_terms": terms + system.m_poly.term_count()}


def _terms(key):
    return lambda report, _args: {key: report.term_count}


COUNTERS = {
    "recursion_gen.generate": _poly_terms,
    "recursion_gen.save_system": lambda _result, args: {
        "recursion_gen.cache_bytes": Path(args[1]).stat().st_size},
    "evolve.evolve_to": lambda vectors, _args: {
        "evolve.final_digits": digit_count(max(vectors[-1].counts))},
    "entropy.bounds": lambda result, _args: {
        "entropy.lambda_digits": result.lambda_digits,
        "entropy.certified_digits": result.certified_digits},
    "appendix_check.omega_ascending_certificate": _terms("appendix_check.omega_terms"),
    "appendix_check.alpha_descending_certificate": _terms("appendix_check.alpha_terms"),
    "appendix_check.quadratic_contraction_certificate":
        _terms("appendix_check.contraction_terms"),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    def wrap(fn, inclusive=False):
        name = span_name(fn)
        return tracer.wrap(name, fn, inclusive=inclusive, counter=COUNTERS.get(name))

    for module, attribute, inclusive in TARGETS:
        # a target that has moved raises here, so its layer cannot read 0 silently
        setattr(module, attribute, wrap(getattr(module, attribute), inclusive))
    for key, certificate in list(appendix_check.CERTIFICATES.items()):
        appendix_check.CERTIFICATES[key] = wrap(certificate)


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *command = argv
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id)
    install(tracer)
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            status = tracer.wrap(span_name(cli.main), cli.main)(command)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.as_json()), encoding="utf-8")
        sys.stdout.write(captured.getvalue())
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
