"""The library holds what the commands run: a fixed set of small commands,
run in-process under a profiler, reaches every function under src/, except
the few named in ALLOWED with the reason no command runs them."""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import time
import types
from pathlib import Path

import hanoi_dimer
from hanoi_dimer import cli, entropy, evolve, scan
from hanoi_dimer.recursion_gen import cache_path

SUBSTITUTE = "run only by substitute, which perfbench/traced_cli.py wraps by name"
ALGEBRA = "a ring operation beside *, kept with the algebra substitute runs on"
FAIL_PATH = "certificate FAIL path: no generated system fails a certificate"
MAKE = "_make validator: namedtuple's own _make and _replace skip __new__'s checks"

ALLOWED = {
    "multipoly.substitute": "perfbench/traced_cli.py wraps appendix_check.substitute",
    "multipoly.substitute.<locals>.power": SUBSTITUTE,
    "multipoly.Polynomial.constant": SUBSTITUTE,
    "multipoly.Polynomial.variable": SUBSTITUTE,
    "multipoly.Polynomial.with_varset": SUBSTITUTE,
    "multipoly.Polynomial.__mul__": SUBSTITUTE,
    "multipoly.Polynomial.__pow__": SUBSTITUTE,
    "multipoly._aligned": SUBSTITUTE,
    "multipoly.Polynomial.__add__": ALGEBRA,
    "multipoly.Polynomial.__neg__": ALGEBRA,
    "multipoly.Polynomial.__sub__": ALGEBRA,
    "appendix_check._expansion_certificate.<locals>.<lambda>": FAIL_PATH,
    "appendix_check._unpack_key": FAIL_PATH,
    "appendix_check.gap_varset": FAIL_PATH,
    "errors.UnboundVariableError.__init__":
        "error path: every command binds each variable it evaluates",
    "cli.run": "ends the process, so no in-process command can reach it",
    "cli._stdout_lost": "reached through a closed stdout, which only a subprocess has",
    "evolve.BoundaryClassVector._make": MAKE,
    "ratio_facts.RatioTrace._make": MAKE,
}

# the functools.cache tables a command fills; an earlier test's warm table
# would hide the calls that fill it
CACHES = (scan._connector_choices, scan._extension_weights,
          entropy._ln2_interval, entropy._ln10_interval)


def library_functions() -> dict[tuple[str, int, str], str]:
    """Every function and lambda compiled from src/hanoi_dimer, its
    commands package included, keyed as a profiler sees its code, with its
    module-qualified name (commands.count.run for the count command)."""
    found = {}
    root = Path(hanoi_dimer.__file__).parent
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                name = const.co_name
                comprehension = name.startswith("<") and name != "<lambda>"
                # a class body is no function: it is not CO_OPTIMIZED
                if const.co_flags & inspect.CO_OPTIMIZED and not comprehension:
                    key = (str(path), const.co_firstlineno, name)
                    found[key] = f"{module}.{const.co_qualname}"
    return found


def commands(cache: Path) -> list[list[str]]:
    store = ["--cache-dir", str(cache)]
    return [
        ["gen-recursions", "--d", "2", *store],
        ["count", "--d", "3", "--n", "1"],
        ["count", "--d", "2", "--n", "1", "--format", "csv"],
        ["count", "--d", "13", "--n", "1"],  # the scan-work cap refuses it
        ["oracle", "--d", "2", "--n", "1"],
        ["oracle", "--d", "2", "--n", "1", "--constraint", "mdf"],
        ["oracle", "--d", "2", "--n", "1", "--emit-graph"],
        ["oracle", "--d", "2", "--n", "1", "--memo-cap", "1"],
        ["verify", "--d", "3", "--n-max", "1", *store],  # no file: written
        ["verify", "--d", "3", "--n-max", "1", *store],  # the file: loaded
        ["ratios", "--d", "3", "--max-n", "2"],
        ["ratios", "--d", "3", "--max-n", "2", "--format", "csv"],
        ["entropy", "--d", "3", "--k", "3"],
        ["appendix-check", "--d", "2"],
        ["reproduce"],
    ]


def test_every_library_function_is_run_by_a_command_or_allowed(tmp_path, monkeypatch):
    for table in CACHES:
        table.cache_clear()
    # cli binds each library name on first use, and evolve evaluate_int;
    # unbound, the first use runs again
    for name in cli._LIBRARY:
        monkeypatch.delitem(vars(cli), name, raising=False)
    monkeypatch.delitem(vars(evolve), "evaluate_int", raising=False)
    runs = [(argv, None) for argv in commands(tmp_path)]
    # a cache file whose text fails to parse is regenerated, and so is one
    # that reads as the generated system in a text gen-recursions never
    # writes: here the first command's file with "c2^3" for "1*c2^3"
    written = cache_path(tmp_path, 2)
    for name, text in (
        ("corrupt", lambda: "# d=2 basis=c0..c3\nc0: 1*c0^\nc1: 1\nc2: 1\nc3: 1\nM: 1\n"),
        ("reworded", lambda: written.read_text().replace(" + 1*c2^3\n", " + c2^3\n")),
    ):
        runs.append((["verify", "--d", "2", "--n-max", "1",
                      "--cache-dir", str(tmp_path / name)], text))
    reached = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    start = time.perf_counter()
    statuses = []
    for argv, text in runs:
        if text is not None:
            path = cache_path(Path(argv[-1]), 2)
            path.parent.mkdir()
            path.write_text(text(), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                statuses.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    assert time.perf_counter() - start < 3
    assert statuses == [0, 0, 0, 3, 0, 0, 0, 3] + [0] * 9

    functions = library_functions()
    names = set(functions.values())
    unreached = {name for key, name in functions.items() if key not in reached}
    assert not set(ALLOWED) - names, "allowed names that no longer exist"
    assert not set(ALLOWED) - unreached, "allowed names that a command now runs"
    assert unreached <= set(ALLOWED), "functions no command runs"
