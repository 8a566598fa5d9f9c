"""Command-line interface tying the modules together.

Commands: gen-recursions, count, oracle, verify, ratios, entropy,
appendix-check, reproduce.  Exit codes: 0 success, 1 mismatch/violation,
2 usage error, 3 resource cap.  All output is deterministic for identical
inputs and flags; progress and warnings go to stderr only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import warnings
from pathlib import Path

from .errors import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_MEMO_CAP,
    DEFAULT_ORACLE_VERTEX_CAP,
    DEFAULT_PRECISION,
    DEFAULT_TERM_BUDGET,
    DEFAULT_VERTEX_CAP,
    CacheCorruption,
    CapExceeded,
    HanoiDimerError,
    IntegrityError,
)

CACHE_ENV = "HANOI_DIMER_CACHE"

# The library names the commands call, each imported from its module when a
# command first needs it (PEP 562), so that a command loads only the modules
# it runs.  They are attributes of this module, looked up when a command
# runs: a name rebound here first (a tracing wrapper, a test's stand-in) is
# the one called.
_LIBRARY = {
    "run_certificates": "appendix_check",
    "bounds": "entropy",
    "working_bits": "entropy",
    "apply_system": "evolve",
    "check_contraction": "evolve",
    "eps_ratio_table_value": "evolve",
    "evolve_to": "evolve",
    "ratios": "evolve",
    "render_quotient": "evolve",
    "step": "evolve",
    "build": "hanoi_graph",
    "edge_csv": "hanoi_graph",
    "CornerConstraint": "matching_oracle",
    "boundary_class_vector": "matching_oracle",
    "check_stage_vertex_cap": "matching_oracle",
    "count_constrained": "matching_oracle",
    "cache_path": "recursion_gen",
    "check_generation_work": "recursion_gen",
    "generate": "recursion_gen",
    "load_system": "recursion_gen",
    "save_system": "recursion_gen",
}


def __getattr__(name: str):
    module = _LIBRARY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _library(*names: str) -> tuple:
    """This module's current binding of each of names (see _LIBRARY)."""
    scope = globals()
    return tuple(scope[name] if name in scope else __getattr__(name)
                 for name in names)


def resolve_cache_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hanoi-dimer"


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# -- commands ----------------------------------------------------------------


def cmd_gen_recursions(args: argparse.Namespace) -> int:
    generate, save_system, cache_path = _library("generate", "save_system",
                                                 "cache_path")
    system = generate(args.d)
    path = cache_path(resolve_cache_dir(args.cache_dir), args.d)
    save_system(system, path)
    sizes = ", ".join(str(p.term_count()) for p in system.class_polys)
    _emit(f"wrote {path}")
    _emit(f"class polynomial terms: {sizes}; total polynomial terms: "
          f"{system.m_poly.term_count()}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    (evolve_to,) = _library("evolve_to")
    vectors = evolve_to(args.d, args.n, digit_cap=args.digit_cap)
    v = vectors[args.n]
    if args.format == "csv":
        heads = ["d", "n"] + [f"c{k}" for k in range(args.d + 2)] + ["M"]
        row = [str(args.d), str(args.n)] + [str(c) for c in v.counts] + [str(v.m)]
        _emit(",".join(heads))
        _emit(",".join(row))
    else:
        _emit(json.dumps({
            "d": args.d, "n": args.n,
            "c": [str(c) for c in v.counts], "M": str(v.m),
        }))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    build, edge_csv, CornerConstraint, count_constrained, boundary_class_vector = (
        _library("build", "edge_csv", "CornerConstraint", "count_constrained",
                 "boundary_class_vector"))
    graph = build(args.d, args.n, vertex_cap=args.vertex_cap)
    if args.emit_graph:
        sys.stdout.write(edge_csv(graph))
        return 0
    if args.constraint is not None:
        constraint = CornerConstraint.parse(args.constraint)
        value = count_constrained(graph, constraint,
                                  vertex_cap=args.oracle_vertex_cap,
                                  memo_cap=args.memo_cap)
        _emit(json.dumps({
            "d": args.d, "n": args.n,
            "constraint": args.constraint, "count": str(value),
        }))
        return 0
    vector = boundary_class_vector(graph, vertex_cap=args.oracle_vertex_cap,
                                   memo_cap=args.memo_cap)
    _emit(json.dumps({
        "d": args.d, "n": args.n, "M": str(vector.m),
        "c": [str(c) for c in vector.counts],
    }))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    (check_generation_work, check_stage_vertex_cap, evolve_to, generate,
     cache_path, load_system, save_system, apply_system, boundary_class_vector,
     build) = _library(
        "check_generation_work", "check_stage_vertex_cap", "evolve_to",
        "generate", "cache_path", "load_system", "save_system", "apply_system",
        "boundary_class_vector", "build")
    # every cap but the memo cap refuses before any work: generating the
    # system, the oracle on its largest graph, TH_d(n_max), and then the
    # scan's own caps
    check_generation_work(args.d)
    check_stage_vertex_cap(args.d, args.n_max, args.oracle_vertex_cap)
    scan = evolve_to(args.d, args.n_max, digit_cap=args.digit_cap)
    system = generate(args.d)
    # the cache file must hold the generated system: a missing file is
    # written, a corrupt one rewritten, and one that loads to another system
    # is refused and left as it is (the stages below cannot see every term:
    # each odd class count is 0 at stage 0)
    path = cache_path(resolve_cache_dir(args.cache_dir), args.d)
    loaded = None
    if path.exists():
        try:
            loaded = load_system(path, args.d)
        except CacheCorruption as err:
            warnings.warn(f"regenerating corrupt recursion cache: {err}")
    if loaded is None:
        save_system(system, path)
    else:
        labels = [f"c{k}" for k in range(args.d + 2)] + ["M"]
        for label, got, want in zip(labels, loaded.class_polys + (loaded.m_poly,),
                                    system.class_polys + (system.m_poly,)):
            if got != want:
                _emit(f"cache: MISMATCH {label}: the loaded polynomial differs "
                      "from the generated one")
                return 1
    # the generated system, evaluated term by term on the scan's stages (equal
    # to its own trajectory up to the first mismatch), and the transfer scan
    sources = (
        ("recursion", scan[:1] + [apply_system(system, v) for v in scan[:-1]]),
        ("scan", scan),
    )
    for n in range(args.n_max + 1):
        reference = boundary_class_vector(
            build(args.d, n), vertex_cap=args.oracle_vertex_cap,
            memo_cap=args.memo_cap)
        for label, vectors in sources:
            got = vectors[n]
            if got == reference:
                continue
            for k, (count, want) in enumerate(zip(got.counts, reference.counts)):
                if count != want:
                    _emit(f"stage {n}: MISMATCH c{k}: {label} {count}, oracle {want}")
                    break
            else:
                _emit(f"stage {n}: MISMATCH M: {label} {got.m}, oracle {reference.m}")
            return 1
        _emit(f"stage {n}: OK ({args.d + 2} class counts + total)")
    return 0


def cmd_ratios(args: argparse.Namespace) -> int:
    evolve_to, ratios, render_quotient, eps_ratio_table_value = _library(
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
        _emit(",".join(["n"] + [f"r{j}" for j in range(args.d + 1)] + ["eps"]))
        for row in stages:
            _emit(",".join([str(row["n"])] + row["r"] + [row["eps"]]))
    else:
        _emit(json.dumps({
            "d": args.d, "digits": digits,
            "stages": stages, "eps_ratios": quotients,
        }))
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    evolve_to, working_bits, bounds = _library("evolve_to", "working_bits",
                                               "bounds")
    # bounds needs only the leading bits: stop once the counts outgrow them
    vectors = evolve_to(args.d, args.k, digit_cap=args.digit_cap,
                        stop_bits=working_bits(args.precision, args.k))
    result = bounds(args.d, args.k, vectors, precision=args.precision)
    payload = {
        "d": args.d, "k": args.k, "precision": args.precision,
        "lower": result.lower.as_decimal(),
        "upper": result.upper.as_decimal(),
        "certified_digits": result.certified_digits,
        "lambda_digits": result.lambda_digits,
    }
    if result.warning:
        payload["warning"] = result.warning
    _emit(json.dumps(payload))
    return 0


def cmd_appendix_check(args: argparse.Namespace) -> int:
    (run_certificates,) = _library("run_certificates")
    reports = run_certificates(args.d, args.which, term_budget=args.term_budget)
    status = 0
    for report in reports:
        if not report.attempted:
            reasons = (note.removeprefix("not attempted: ") for note in report.notes)
            _emit(f"{report.name} d={args.d}: NOT ATTEMPTED ({'; '.join(reasons)})")
            status = max(status, 3)
        elif report.passed:
            _emit(f"{report.name} d={args.d}: PASS ({report.term_count} terms)")
        else:
            _emit(f"{report.name} d={args.d}: FAIL "
                  f"(offending monomial {report.offending_monomial})")
            status = max(status, 1)
    return status


# -- reproduce ----------------------------------------------------------------


class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.checks = 0
        self.failures = 0

    def info(self, text: str) -> None:
        self.lines.append(text)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if ok:
            self.lines.append(f"  {label}: OK{(' ' + detail) if detail else ''}")
        else:
            self.failures += 1
            self.lines.append(f"  {label}: FAIL{(' ' + detail) if detail else ''}")

    def compare(self, label: str, got, want) -> None:
        if got == want:
            self.check(label, True)
        else:
            self.check(label, False, f"(got {got!r}, want {want!r})")


_ORACLE_STAGES = {2: (0, 1, 2), 3: (0, 1), 4: (0, 1)}


# every reference table reads exact counts of stages up to _EXACT_STAGES; the
# ratio facts and the entropy bounds of the last stage need only leading bits
_EXACT_STAGES = 5
_LAST_STAGE = 6
_PRECISION = 160


def _reproduce_dimension(report: _Report, d: int) -> None:
    from . import reference_values as ref

    (generate, evolve_to, boundary_class_vector, build, bounds, ratios,
     check_contraction, step, render_quotient, eps_ratio_table_value) = _library(
        "generate", "evolve_to", "boundary_class_vector", "build", "bounds",
        "ratios", "check_contraction", "step", "render_quotient",
        "eps_ratio_table_value")
    report.info(f"[d={d}]")
    generate(d)  # checks each polynomial's shape and closed-form total
    report.info(f"  generated {d + 2} class polynomials over c0..c{d + 1}")

    vectors = evolve_to(d, _EXACT_STAGES)
    for n in _ORACLE_STAGES[d]:
        reference = boundary_class_vector(build(d, n))
        report.check(f"oracle cross-check stage {n}", reference == vectors[n])

    counts_ref, totals_ref = ref.REFERENCE_COUNTS[d]
    for n in (1, 2):
        report.compare(f"class counts n={n}",
                       vectors[n].counts, counts_ref[n])
        report.compare(f"matching total n={n}", vectors[n].m, totals_ref[n])

    # the ratio facts of the last stage read the enclosure the bounds were
    # read off; if its ends leave a fact open, the exact stage decides it
    result = bounds(d, _LAST_STAGE, vectors, precision=_PRECISION)
    trace = ratios(vectors + [result.enclosure])
    contraction = check_contraction(trace)
    if contraction is None:
        trace = ratios(vectors + [step(vectors[_EXACT_STAGES])])
        contraction = check_contraction(trace)
    if d == 3:
        for n, row in ref.RATIOS_D3.items():
            got = tuple(render_quotient(*trace.ratio_pair(n, j), 15) for j in range(4))
            report.compare(f"ratio row n={n} (15 digits)", got, row)
        for n, want in ref.EPS_RATIO_TABLE_D3.items():
            report.compare(f"contraction quotient n={n}",
                           eps_ratio_table_value(trace, n), want)
    elif d == 4:
        for n, row in ref.RATIOS_D4.items():
            got = tuple(render_quotient(*trace.ratio_pair(n, j), 14) for j in range(5))
            report.compare(f"ratio row n={n} (14 digits)", got, row)

    report.check("ratio ordering and monotonicity", contraction.ok,
                 f"(limit {contraction.limit_digits[:31]})")
    if d in ref.RATIO_LIMIT_DIGITS:
        report.check(
            "ratio limit digits",
            contraction.limit_digits.startswith(ref.RATIO_LIMIT_DIGITS[d]),
            f"(want prefix {ref.RATIO_LIMIT_DIGITS[d]})",
        )

    prefix = ref.Z_PREFIX[d]
    report.check(
        "entropy bounds k=6 share reference prefix",
        result.lower.as_decimal().startswith(prefix)
        and result.upper.as_decimal().startswith(prefix),
        f"({prefix}, certified {result.certified_digits} digits)",
    )
    if d in ref.MIN_CERTIFIED_DIGITS_K6:
        need = ref.MIN_CERTIFIED_DIGITS_K6[d]
        report.check(f"certified digits >= {need}",
                     result.certified_digits >= need,
                     f"(got {result.certified_digits})")


def cmd_reproduce(_args: argparse.Namespace) -> int:
    report = _Report()
    report.info("reference reproduction report")
    report.info("=============================")
    for d in (2, 3, 4):
        _reproduce_dimension(report, d)
        report.info("")
    verdict = "all values match" if report.failures == 0 else "MISMATCHES FOUND"
    report.info(f"SUMMARY: {report.checks} comparisons, "
                f"{report.failures} failures -- {verdict}")
    _emit("\n".join(report.lines))
    return 0 if report.failures == 0 else 1


# -- parser --------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, d=True, cache=True) -> None:
    if d:
        parser.add_argument("--d", type=int, required=True,
                            help="dimension (>= 2)")
    if cache:
        parser.add_argument("--cache-dir", default=None,
                            help=f"recursion cache directory (default: "
                                 f"${CACHE_ENV} or ~/.cache/hanoi-dimer)")


def _add_unused_cache_dir(parser: argparse.ArgumentParser) -> None:
    # the scan-only commands keep accepting the flag so that scripts passing it
    # to every command still run
    parser.add_argument("--cache-dir", default=None,
                        help="accepted and ignored: this command evolves by "
                             "the transfer scan, from d alone")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanoi-dimer",
        description="Exact dimer-monomer enumeration and certified entropy "
                    "bounds on Tower of Hanoi graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-recursions",
                       help="generate a recursion system and write its cache file")
    _add_common(p)
    p.set_defaults(func=cmd_gen_recursions)

    p = sub.add_parser("count", help="exact class counts at a stage")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle", help="brute-force counts on the built graph")
    _add_common(p, cache=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraint", default=None,
                   help="per-corner letters m/d/f (monomer, dimer, free)")
    p.add_argument("--emit-graph", action="store_true",
                   help="print the edge list as CSV instead of counting")
    p.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--oracle-vertex-cap", type=int,
                   default=DEFAULT_ORACLE_VERTEX_CAP)
    p.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify",
                       help="cross-validate recursion counts against the oracle")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--oracle-vertex-cap", type=int,
                   default=DEFAULT_ORACLE_VERTEX_CAP)
    p.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP)
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ratios", help="consecutive-class ratio trace")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("entropy", help="certified entropy-per-site bounds")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--k", type=int, required=True, help="bound stage (>= 1)")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("appendix-check",
                       help="symbolic monotonicity/contraction certificates")
    _add_common(p, cache=False)
    p.add_argument("--which", default="all",
                   choices=("omega", "alpha", "contraction", "all"))
    p.add_argument("--term-budget", type=int, default=DEFAULT_TERM_BUDGET)
    p.set_defaults(func=cmd_appendix_check)

    p = sub.add_parser("reproduce",
                       help="recompute every reference value for d=2,3,4 "
                            "and report matches")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """ValueError for the first out-of-range flag value, before any work.

    A flag the command does not take is absent from args and passes.
    """
    if getattr(args, "d", 2) < 2:
        raise ValueError("--d must be at least 2")
    if getattr(args, "k", 1) < 1:
        raise ValueError("bound stage k must be >= 1")
    if getattr(args, "n", 0) < 0:
        raise ValueError("stage n must be >= 0")
    if getattr(args, "n_max", 0) < 0:
        raise ValueError("n_max must be >= 0")
    if getattr(args, "max_n", 1) < 1:
        raise ValueError("need at least one vector at stage >= 1 (stage-0 "
                         "ratios are undefined: c1(0) = 0)")
    if getattr(args, "digits", 0) < 0:
        raise ValueError("--digits must be >= 0")
    for name in ("vertex_cap", "oracle_vertex_cap", "memo_cap",
                 "digit_cap", "term_budget", "precision"):
        if getattr(args, name, 1) <= 0:
            raise ValueError(f"{name} must be positive")


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(20_000_000)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except CapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except (IntegrityError, HanoiDimerError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
