"""Command-line interface tying the modules together.

Commands: gen-recursions, count, oracle, verify, ratios, entropy,
appendix-check, reproduce.  Each command's body is its own module of the
commands package, imported only when that command runs, so that building
the parser loads nothing but this module and errors.  Exit codes: 0
success, 1 mismatch/violation, 2 usage error, 3 resource cap.  All output
is deterministic for identical inputs and flags; progress and warnings go
to stderr only.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from .errors import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_MEMO_CAP,
    DEFAULT_ORACLE_VERTEX_CAP,
    DEFAULT_PRECISION,
    DEFAULT_TERM_BUDGET,
    DEFAULT_VERTEX_CAP,
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
    "apply_system": "evolve",
    "evolve_to": "evolve",
    "step": "evolve",
    "build": "hanoi_graph",
    "edge_csv": "hanoi_graph",
    "CornerConstraint": "matching_oracle",
    "boundary_class_vector": "matching_oracle",
    "check_stage_vertex_cap": "matching_oracle",
    "count_constrained": "matching_oracle",
    "check_contraction": "ratio_facts",
    "eps_ratio_table_value": "ratio_facts",
    "ratios": "ratio_facts",
    "render_quotient": "ratio_facts",
    "cache_path": "recursion_gen",
    "generate": "recursion_gen",
    "line_labels": "recursion_gen",
    "load_system": "recursion_gen",
    "save_system": "recursion_gen",
    "check_generation_work": "scan",
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
    try:
        sys.stdout.write(text + "\n")
    except OSError as err:
        raise _stdout_lost(err) from err


def _emit_json(payload: dict) -> None:
    # json is imported here, so that a command printing no JSON never loads it
    import json

    _emit(json.dumps(payload))


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

    p = sub.add_parser("count", help="exact class counts at a stage")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)

    p = sub.add_parser("oracle", help="brute-force counts on the built graph")
    _add_common(p, cache=False)
    p.add_argument("--n", type=int, required=True)
    # the edge list counts nothing, so no constraint can apply to it
    output = p.add_mutually_exclusive_group()
    output.add_argument("--constraint", default=None,
                        help="per-corner letters m/d/f (monomer, dimer, free)")
    output.add_argument("--emit-graph", action="store_true",
                        help="print the edge list as CSV instead of counting")
    p.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--oracle-vertex-cap", type=int,
                   default=DEFAULT_ORACLE_VERTEX_CAP)
    p.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP)

    p = sub.add_parser("verify",
                       help="cross-validate recursion counts against the oracle")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--oracle-vertex-cap", type=int,
                   default=DEFAULT_ORACLE_VERTEX_CAP)
    p.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP)
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)

    p = sub.add_parser("ratios", help="consecutive-class ratio trace")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)

    p = sub.add_parser("entropy", help="certified entropy-per-site bounds")
    _add_common(p, cache=False)
    _add_unused_cache_dir(p)
    p.add_argument("--k", type=int, required=True, help="bound stage (>= 1)")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)

    p = sub.add_parser("appendix-check",
                       help="symbolic monotonicity/contraction certificates")
    _add_common(p, cache=False)
    p.add_argument("--which", default="all",
                   choices=("omega", "alpha", "contraction", "all"))
    p.add_argument("--term-budget", type=int, default=DEFAULT_TERM_BUDGET)

    sub.add_parser("reproduce",
                   help="recompute every reference value for d=2,3,4 "
                        "and report matches")

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
        command = importlib.import_module(
            f".commands.{args.command.replace('-', '_')}", __package__)
        return command.run(args)
    except CapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return 3
    except (IntegrityError, HanoiDimerError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2


def _stdout_lost(err: OSError) -> HanoiDimerError:
    """The error for a stdout that takes no more output, once its descriptor
    points at os.devnull so that no later flush raises again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return HanoiDimerError(f"cannot write to stdout: {err}")


def run() -> None:
    """The entry point of ``python -m hanoi_dimer`` and ``hanoi-dimer``: main
    on sys.argv, then flush both streams and end the process at once.

    The process skips the interpreter's teardown, which would free every
    object one by one: every file a command writes is closed before main
    returns.  argparse's SystemExit and an uncaught exception leave through
    the usual path.
    """
    status = main()
    try:
        sys.stdout.flush()
    except OSError as err:
        print(f"error: {_stdout_lost(err)}", file=sys.stderr)
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
