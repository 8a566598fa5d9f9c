"""The benchmark's workloads: the CLI commands each runs and its output checks.

Each workload is a fixed list of ``hanoi-dimer`` commands, run one after the
other, each in a fresh interpreter.  ``{cache}`` stands for the iteration's
private cache directory.  The inputs are fixed mathematical instances; the
seed the harness receives selects nothing.

Every check returns a list of problems; an empty list means the iteration's
output is correct.  Expected values live in ``fixtures/`` and were produced
by ``make_fixtures.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CACHE = "{cache}"
GENERATED_CACHE_FILE = "recursions_d6.txt"


@dataclass(frozen=True)
class Finished:
    """One CLI process that has exited."""

    argv: tuple[str, ...]
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[Finished], Path, Path], list[str]]


def load_expected() -> dict:
    return json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))


def _exit_codes(runs: list[Finished]) -> list[str]:
    return [f"{' '.join(run.argv)}: exit {run.returncode}: "
            f"{run.stderr.decode(errors='replace').strip()[-200:]}"
            for run in runs if run.returncode != 0]


def check_reproduce(runs, _cache: Path, root: Path) -> list[str]:
    problems = _exit_codes(runs)
    (run,) = runs
    if run.stderr:
        problems.append("reproduce wrote to stderr")
    if run.stdout != (FIXTURES / "reproduce.stdout").read_bytes():
        problems.append("reproduce stdout differs from fixtures/reproduce.stdout")
    return problems


def check_entropy(runs, _cache: Path, root: Path) -> list[str]:
    problems = _exit_codes(runs)
    if problems:
        return problems
    want = load_expected()["toolchain"]["entropy"]
    schema = json.loads(
        (root / "src/hanoi_dimer/schemas/entropy.schema.json").read_text(encoding="utf-8"))
    try:
        payload = json.loads(runs[0].stdout)
        jsonschema.validate(payload, schema)
    except (ValueError, jsonschema.ValidationError) as err:
        return [f"entropy output is not valid: {err}"]
    for side in ("lower", "upper"):
        if not payload[side].startswith(want["certified_prefix"]):
            problems.append(f"{side} bound does not start with the certified prefix")
    if payload["certified_digits"] < want["certified_digits"]:
        problems.append(f"certified_digits {payload['certified_digits']} < "
                        f"{want['certified_digits']}")
    return problems


_PASS = re.compile(r"[a-z-]+ d=\d+: PASS \(\d+ terms\)")


def check_certificates(runs, _cache: Path, root: Path) -> list[str]:
    problems = _exit_codes(runs)
    for run in runs:
        lines = run.stdout.decode().splitlines()
        wanted = 3 if run.argv[-1] == "all" else 1
        if len(lines) != wanted or not all(_PASS.fullmatch(line) for line in lines):
            problems.append(f"{' '.join(run.argv)}: expected {wanted} PASS lines, "
                            f"got {lines!r}")
    return problems


def check_gen_count_verify(runs, cache: Path, root: Path) -> list[str]:
    problems = _exit_codes(runs)
    if problems:
        return problems
    want = load_expected()["toolchain"]
    written = cache / GENERATED_CACHE_FILE
    if not written.is_file():
        return [f"{GENERATED_CACHE_FILE} was not written"]
    if (hashlib.sha256(written.read_bytes()).hexdigest()
            != want["gen-recursions"]["cache_sha256"]):
        problems.append(f"{GENERATED_CACHE_FILE} differs from the seed's")
    gen, count, verify = runs
    try:
        if json.loads(count.stdout) != want["count"]["output"]:
            problems.append("count output differs from the seed's")
    except ValueError:
        problems.append("count output is not JSON")
    lines = verify.stdout.decode().splitlines()
    for stage in (0, 1):
        if not any(line.startswith(f"stage {stage}: OK") for line in lines):
            problems.append(f"verify did not print 'stage {stage}: OK'")
    return problems


def check_toolchain(runs, cache: Path, root: Path) -> list[str]:
    return (check_gen_count_verify(runs[:3], cache, root)
            + check_entropy(runs[3:4], cache, root)
            + check_certificates(runs[4:], cache, root))


WORKLOADS = {
    w.name: w for w in (
        Workload("reproduce", (("reproduce",),), check_reproduce),
        Workload(
            "toolchain",
            # bring-up of a new dimension, sharing one fresh cache directory
            (("gen-recursions", "--d", "6", "--cache-dir", CACHE),
             ("count", "--d", "6", "--n", "3", "--cache-dir", CACHE),
             ("verify", "--d", "5", "--n-max", "1", "--cache-dir", CACHE),
             # deep certified entropy
             ("entropy", "--d", "3", "--k", "8", "--precision", "600",
              "--cache-dir", CACHE),
             # appendix certificates
             ("appendix-check", "--d", "3", "--which", "all"),
             ("appendix-check", "--d", "4", "--which", "alpha")),
            check_toolchain,
        ),
    )
}
