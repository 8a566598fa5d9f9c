"""CLI surface: commands, formats, schemas, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import time
from functools import cache
from importlib import resources
from itertools import count
from pathlib import Path

import jsonschema
import pytest
from hypothesis import event, given, settings, strategies as st

from hanoi_dimer import cli, entropy, evolve, recursion_gen
from hanoi_dimer.cli import build_parser, main
from hanoi_dimer.errors import CacheCorruption, HanoiDimerError
from hanoi_dimer.evolve import BoundaryClassVector
from hanoi_dimer.matching_oracle import recursion_ceiling
from hanoi_dimer.recursion_gen import (
    SCAN_WORK_CAP,
    cache_path,
    generate,
    load_system,
    save_system,
    scan_pairs,
)

from .helpers import REPO_DIR, run_python


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    text = resources.files("hanoi_dimer.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload: dict, schema_name: str) -> None:
    jsonschema.validate(payload, load_schema(schema_name))


# -- count -----------------------------------------------------------------------


def test_count_json_matches_reference_and_schema(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "count", "--d", "3", "--n", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "count.schema.json")
    assert payload == {
        "d": 3, "n": 1,
        "c": ["1010", "1242", "1556", "1983", "2571"], "M": "25817",
    }


def test_count_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--n", "2",
                           "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,c0,c1,c2,c3,M"
    assert lines[1] == "2,2,568301,521504,478579,439204,4007754"


def test_count_digit_cap_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "count", "--d", "3", "--n", "30",
                           "--cache-dir", str(tmp_path))
    assert code == 3
    assert "resource cap" in err


# -- oracle ----------------------------------------------------------------------


def test_oracle_vector_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--d", "3", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "oracle.schema.json")
    assert payload["M"] == "25817"
    assert payload["c"] == ["1010", "1242", "1556", "1983", "2571"]


def test_oracle_constrained_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--d", "3", "--n", "0",
                           "--constraint", "dddd")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "oracle.schema.json")
    assert payload == {"d": 3, "n": 0, "constraint": "dddd", "count": "3"}


def test_oracle_emit_graph(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--d", "2", "--n", "0",
                           "--emit-graph")
    assert code == 0
    assert out.splitlines() == ["# d=2 n=0 corners=0,1,2", "0,1", "0,2", "1,2"]


def test_oracle_vertex_cap_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--d", "2", "--n", "4")
    assert code == 3
    assert "cap" in err


def test_oracle_past_the_recursion_ceiling_exits_3(capsys):
    # TH_2(6) has 2187 vertices, past the ceiling under the default
    # recursion limit; the refusal comes before the counter recurses
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--d", "2", "--n", "6",
                             "--oracle-vertex-cap", "5000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "resource cap: oracle refuses 2187 vertices" in err
    assert f"ceiling of {recursion_ceiling()}" in err


def test_oracle_below_the_recursion_ceiling_answers(capsys):
    # TH_2(5), 729 vertices, is counted in full and agrees with the scan
    code, out, _ = run_cli(capsys, "oracle", "--d", "2", "--n", "5",
                           "--oracle-vertex-cap", "5000")
    assert code == 0
    payload = json.loads(out)
    want = evolve.evolve_to(2, 5)[5]
    assert payload["c"] == [str(c) for c in want.counts]
    assert payload["M"] == str(want.m)


# -- verify ----------------------------------------------------------------------


def test_verify_d3(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--d", "3", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "stage 0: OK (5 class counts + total)",
        "stage 1: OK (5 class counts + total)",
    ]


CACHE_MISMATCH = "cache: MISMATCH {}: the loaded polynomial differs from the generated one"


def write_tampered_cache(capsys, tmp_path, d, *edits) -> Path:
    """The d-system's cache file under tmp_path, with each (old, new) text
    edit made once in its lines."""
    run_cli(capsys, "gen-recursions", "--d", str(d), "--cache-dir", str(tmp_path))
    path = cache_path(tmp_path, d)
    text = path.read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text)
    return path


def test_verify_detects_tampered_cache(capsys, tmp_path, monkeypatch):
    # bump c0^3 in the c0 and M lines together: the tampered system stays
    # self-consistent, so no evaluation of it can expose it
    path = write_tampered_cache(capsys, tmp_path, 2, ("c0: 8*c0^3", "c0: 9*c0^3"),
                                ("M: 8*c0^3", "M: 9*c0^3"))
    tampered = path.read_bytes()
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert (code, out) == (1, CACHE_MISMATCH.format("c0") + "\n")
    assert path.read_bytes() == tampered
    # generated, the same system fails the oracle at stage 1
    monkeypatch.setattr(cli, "generate", lambda d: load_system(path, d))
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert out.splitlines() == ["stage 0: OK (4 class counts + total)",
                                "stage 1: MISMATCH c0: recursion 19, oracle 18"]


def test_verify_compares_a_loaded_cache_with_the_generated_system(capsys, tmp_path,
                                                                   monkeypatch):
    # c1 is 0 at stage 0, so these c0^2*c1 terms add 0 to every stage-1 count
    path = write_tampered_cache(
        capsys, tmp_path, 2, ("c0: 8*c0^3 + 24*c0^2*c1", "c0: 8*c0^3 + 25*c0^2*c1"),
        ("M: 8*c0^3 + 48*c0^2*c1", "M: 8*c0^3 + 49*c0^2*c1"))
    tampered = path.read_bytes()
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert (code, out) == (1, CACHE_MISMATCH.format("c0") + "\n")
    assert path.read_bytes() == tampered
    # generated, the same system passes every stage up to 1 and fails at 2
    monkeypatch.setattr(cli, "generate", lambda d: load_system(path, d))
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert (code, out.splitlines()[-1]) == (0, "stage 1: OK (4 class counts + total)")
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert out.splitlines()[-1].startswith("stage 2: MISMATCH c0: recursion ")


def test_verify_refuses_a_truncated_cache_file_and_leaves_it(capsys, tmp_path):
    # cut at its last " + ", the file still parses, with M one term short
    run_cli(capsys, "gen-recursions", "--d", "3", "--cache-dir", str(tmp_path))
    path = cache_path(tmp_path, 3)
    data = path.read_bytes()
    cut = data[:data.rindex(b" + ")]
    path.write_bytes(cut)
    code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "1",
                             "--cache-dir", str(tmp_path))
    assert (code, out, err) == (1, CACHE_MISMATCH.format("M") + "\n", "")
    assert path.read_bytes() == cut


def test_verify_generates_once_when_it_writes_the_cache(capsys, tmp_path,
                                                        monkeypatch):
    calls = []
    real_generate = recursion_gen.generate

    def counted(d):
        calls.append(d)
        return real_generate(d)

    monkeypatch.setattr(cli, "generate", counted)
    monkeypatch.setattr(recursion_gen, "generate", counted)
    code, _, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                         "--cache-dir", str(tmp_path))
    assert (code, calls) == (0, [2])
    code, _, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                         "--cache-dir", str(tmp_path))
    assert (code, calls) == (0, [2, 2])


def test_verify_generates_once_over_a_corrupt_cache_file(capsys, tmp_path,
                                                         monkeypatch):
    # the regenerated file is the generated system already: no second
    # generation for the loaded-file comparison
    calls = []
    real_generate = recursion_gen.generate

    def counted(d):
        calls.append(d)
        return real_generate(d)

    monkeypatch.setattr(cli, "generate", counted)
    monkeypatch.setattr(recursion_gen, "generate", counted)
    path = cache_path(tmp_path, 2)
    path.write_text("garbage\n")
    code, out, err = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                             "--cache-dir", str(tmp_path))
    assert (code, calls) == (0, [2])
    assert err.startswith("warning: regenerating corrupt recursion cache: ")
    assert err.count("\n") == 1
    assert out.splitlines()[-1] == "stage 1: OK (4 class counts + total)"
    assert load_system(path, 2) == real_generate(2)


@pytest.mark.parametrize("held", ["other-d", "different"])
def test_verify_generates_once_over_a_file_for_another_system(tmp_path, monkeypatch,
                                                              held):
    calls = []
    real_generate = recursion_gen.generate

    def counted(d):
        calls.append(d)
        return real_generate(d)

    monkeypatch.setattr(cli, "generate", counted)
    path = cache_path(tmp_path, 2)
    data = (cache_bytes(3) if held == "other-d"
            else cache_bytes(2).replace(b"c0: 8*c0^3", b"c0: 9*c0^3"))
    path.write_bytes(data)
    code, out, warned = run_quietly("verify", "--d", "2", "--n-max", "1",
                                    "--cache-dir", str(tmp_path))
    assert calls == [2]
    if held == "other-d":
        # rewritten with a warning, then checked
        assert code == 0
        assert len(warned) == 1
        assert warned[0].startswith("warning: regenerating corrupt recursion cache")
        assert path.read_bytes() == cache_bytes(2)
    else:
        # refused before any stage, and left as it is
        assert (code, out, warned) == (1, CACHE_MISMATCH.format("c0") + "\n", [])
        assert path.read_bytes() == data


@cache
def cache_bytes(d: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = cache_path(Path(tmp), d)
        save_system(generate(d), path)
        return path.read_bytes()


def coefficient_digits(data: bytes) -> list[int]:
    # a coefficient is a run of digits after a space; variables and
    # exponents follow "c" and "^"
    return [m.start() + 1 + i for m in re.finditer(rb" [0-9]+", data)
            for i in range(len(m.group()) - 1)]


@st.composite
def hostile_cache_files(draw):
    """(d, bytes): the d-system's cache file with one coefficient digit
    changed, corrupted, truncated, with its lines permuted, or written for
    the other dimension."""
    d = draw(st.sampled_from([2, 3]))
    data = cache_bytes(d)
    kind = draw(st.sampled_from(["coefficient", "corrupt", "truncate", "permute",
                                 "other-d"]))
    if kind == "coefficient":
        # a file with one coefficient digit changed still loads, to another system
        at = draw(st.sampled_from(coefficient_digits(data)))
        digit = draw(st.sampled_from(b"123456789").filter(lambda b: b != data[at]))
        data = data[:at] + bytes([digit]) + data[at + 1:]
    elif kind == "corrupt":
        edited = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(edited) - 1))
            # digits and syntax keep many edits parseable; 0xff is not UTF-8
            edited[at] = draw(st.sampled_from(b"0189c^*+-: \n\xff"))
        data = bytes(edited)
    elif kind == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "permute":
        lines = data.splitlines(keepends=True)
        permuted = draw(st.permutations(lines))
        data = b"".join(permuted)
    else:
        data = cache_bytes(5 - d)
        if draw(st.booleans()):
            # a header forged to claim this d over the other system
            header = f"# d={d} basis=c0..c{d + 1}\n".encode()
            data = header + data.split(b"\n", 1)[1]
    return d, data


def load_system_bytes(d: int, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.txt"
        path.write_bytes(data)
        return load_system(path, d)


def run_quietly(*argv: str) -> tuple[int, str, list[str]]:
    """main's exit code, stdout and the warning lines of stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    warned = [line for line in err.getvalue().splitlines()
              if line.startswith("warning: ")]
    return code, out.getvalue(), warned


@settings(max_examples=30, deadline=None)
@given(hostile_cache_files())
def test_hostile_cache_files_never_pass_with_wrong_data(case):
    d, data = case
    clean = load_system_bytes(d, cache_bytes(d))
    try:
        tampered = load_system_bytes(d, data)
    except CacheCorruption:
        tampered = None
    event("corrupt" if tampered is None else "same" if tampered == clean else "other")
    with tempfile.TemporaryDirectory() as tmp:
        path = cache_path(Path(tmp), d)
        path.write_bytes(data)
        code, out, warned = run_quietly("verify", "--d", str(d), "--n-max", "1",
                                        "--cache-dir", tmp)
        if tampered is None:
            # regenerated with a warning, and checked
            assert code == 0
            assert len(warned) == 1
            assert warned[0].startswith("warning: regenerating corrupt recursion cache")
            assert path.read_bytes() == cache_bytes(d)
        elif tampered == clean:
            assert code == 0
        else:
            # a file that loads to another system is refused
            assert code == 1, out
        path.write_bytes(data)
        code, _, _ = run_quietly("gen-recursions", "--d", str(d), "--cache-dir", tmp)
        assert code == 0
        assert path.read_bytes() == cache_bytes(d)


def test_inconsistent_tamper_caught_by_integrity_layer(capsys, tmp_path, monkeypatch):
    # c0 bumped, M not: the class sum no longer matches the total
    path = write_tampered_cache(capsys, tmp_path, 2, ("c0: 8*c0^3", "c0: 9*c0^3"))
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert (code, out) == (1, CACHE_MISMATCH.format("c0") + "\n")
    # generated, the same system fails apply_system's total check
    monkeypatch.setattr(cli, "generate", lambda d: load_system(path, d))
    code, out, err = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                             "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: total ")
    assert "differs from binomial-weighted class sum" in err


# -- ratios ----------------------------------------------------------------------


def test_ratios_json_schema_and_values(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ratios", "--d", "3", "--max-n", "4",
                           "--digits", "15", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "ratios.schema.json")
    assert payload["stages"][0]["r"][0] == "0.813204508856683"
    assert payload["eps_ratios"][0]["table_value"] == "0.18102932094933"


def test_ratios_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ratios", "--d", "2", "--max-n", "2",
                           "--digits", "10", "--format", "csv",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r0,r1,r2,eps"
    assert len(lines) == 3


def test_ratios_digits_are_priced_before_evolving(capsys, monkeypatch):
    # 15 places for the 4 values of stages 1..2 and one quotient: 135 digits
    assert run_cli(capsys, "ratios", "--d", "2", "--max-n", "2",
                   "--digit-cap", "135")[0] == 0

    def no_evolving(*args, **kwargs):
        raise AssertionError("evolved past the rendering price")

    monkeypatch.setattr(cli, "evolve_to", no_evolving)
    code, out, err = run_cli(capsys, "ratios", "--d", "2", "--max-n", "2",
                             "--digit-cap", "134")
    assert (code, out) == (3, "")
    assert "prints 135 digits, above the cap of 134; raise it with --digit-cap" in err
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ratios", "--d", "3", "--max-n", "4",
                             "--digits", "10000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "raise it with --digit-cap" in err


def test_ratios_and_reproduce_build_no_fraction(capsys):
    # the ratio facts are integer cross-products and every digit comes from
    # an unreduced pair, so neither command builds a Fraction from the
    # counts: the modules that read them do not import Fraction at all
    assert not hasattr(evolve, "Fraction") and not hasattr(entropy, "Fraction")
    code, out, _ = run_cli(capsys, "ratios", "--d", "4", "--max-n", "4")
    assert code == 0 and json.loads(out)["eps_ratios"]
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0 and "0 failures" in out


# -- reproduce --------------------------------------------------------------------

REPRODUCE_STDOUT = REPO_DIR / "perfbench" / "fixtures" / "reproduce.stdout"


def test_reproduce_steps_exact_counts_to_stage_five(capsys, monkeypatch):
    # stage 6 is an enclosure of stage 5's step; its ratio facts and bounds
    # read only leading bits
    stepped = []
    real_step = evolve.step

    def counted(v):
        stepped.append((v.d, v.n + 1))
        return real_step(v)

    monkeypatch.setattr(evolve, "step", counted)
    code, out, err = run_cli(capsys, "reproduce")
    assert (code, err) == (0, "")
    assert out == REPRODUCE_STDOUT.read_text()
    assert stepped == [(d, n) for d in (2, 3, 4) for n in range(1, 6)]


def test_reproduce_steps_each_last_stage_enclosure_once(capsys, monkeypatch):
    # the ratio facts and the bounds read the one stage-6 enclosure per d
    stepped = []

    def counted(iv, bits):
        stepped.append((iv.d, iv.n + 1, bits))
        return evolve.interval_step(iv, bits)

    monkeypatch.setattr(entropy, "interval_step", counted)
    code, out, err = run_cli(capsys, "reproduce")
    assert (code, err) == (0, "")
    assert out == REPRODUCE_STDOUT.read_text()
    bits = cli.working_bits(160, 6)
    assert stepped == [(d, 6, bits) for d in (2, 3, 4)]


def test_reproduce_decides_an_open_fact_on_the_exact_last_stage(capsys, monkeypatch):
    # as if the bounds' enclosure left a ratio fact open at every d: the
    # exact stage 6 decides them, with the same report
    checked = []
    real_check = cli.check_contraction

    def open_on_enclosures(trace):
        exact = trace.lo[-1] == trace.hi[-1]
        checked.append((trace.d, exact))
        return real_check(trace) if exact else None

    monkeypatch.setattr(cli, "check_contraction", open_on_enclosures)
    code, out, err = run_cli(capsys, "reproduce")
    assert (code, err) == (0, "")
    assert out == REPRODUCE_STDOUT.read_text()
    assert checked == [(d, exact) for d in (2, 3, 4) for exact in (False, True)]


def test_perfbench_tracer_wraps_reproduce(tmp_path):
    # traced_cli raises at start-up if a name it wraps has moved, and its
    # layer metrics read the bounds, ratios and contraction spans of each d
    spans_file = tmp_path / "spans.json"
    run = run_python(str(REPO_DIR / "perfbench" / "traced_cli.py"), str(spans_file),
                     "t", "--", "reproduce")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == REPRODUCE_STDOUT.read_text()
    # each d starts with its generate span, inside the cli.main one
    per_d = []
    for span in json.loads(spans_file.read_text(encoding="utf-8")):
        if span["name"] == "recursion_gen.generate":
            per_d.append({})
        elif per_d:
            per_d[-1].setdefault(span["name"], []).append(span["counts"])
    assert len(per_d) == 3
    for spans in per_d:
        (counts,) = spans["entropy.bounds"]
        assert counts["entropy.certified_digits"] > 0
        assert spans["evolve.ratios"] and spans["evolve.check_contraction"]


@pytest.mark.parametrize("argv, wanted", [
    (("gen-recursions", "--d", "2", "--cache-dir", "CACHE"),
     {"recursion_gen.generate", "recursion_gen.save_system"}),
    (("count", "--d", "2", "--n", "1", "--cache-dir", "CACHE"), {"evolve.evolve_to"}),
    (("verify", "--d", "2", "--n-max", "1", "--cache-dir", "CACHE"),
     {"matching_oracle.boundary_class_vector", "hanoi_graph.build"}),
    (("entropy", "--d", "3", "--k", "3", "--cache-dir", "CACHE"),
     {"entropy.bounds", "evolve.evolve_to"}),
    (("appendix-check", "--d", "2", "--which", "alpha"),
     {"appendix_check.alpha_descending_certificate"}),
], ids=["gen-recursions", "count", "verify", "entropy", "appendix-check"])
def test_perfbench_tracer_wraps_each_toolchain_command(capsys, tmp_path, argv, wanted):
    # the commands bind their library names only when they run, so the
    # tracer's wrappers, bound first, are the ones each command calls
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    spans_file = tmp_path / "spans.json"
    run = run_python(str(REPO_DIR / "perfbench" / "traced_cli.py"), str(spans_file),
                     "t", "--", *argv)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == run_cli(capsys, *argv)[1]
    names = {span["name"] for span in json.loads(spans_file.read_text(encoding="utf-8"))}
    assert wanted | {"cli.main"} <= names


# -- entropy ----------------------------------------------------------------------


def test_entropy_json_schema_and_prefix(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "entropy", "--d", "2", "--k", "6",
                           "--precision", "120", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "entropy.schema.json")
    assert payload["lower"].startswith("0.5764643016")
    assert payload["upper"].startswith("0.5764643016")
    assert payload["certified_digits"] >= 10


def test_entropy_d3_k9_evolves_intervals_past_the_seed_stage(capsys, tmp_path,
                                                              monkeypatch):
    evolved = []

    def recording(*args, **kwargs):
        evolved.append(evolve.evolve_to(*args, **kwargs))
        return evolved[-1]

    monkeypatch.setattr("hanoi_dimer.cli.evolve_to", recording)
    code, out, _ = run_cli(capsys, "entropy", "--d", "3", "--k", "9",
                           "--precision", "1000", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    validate(payload, "entropy.schema.json")
    assert payload["certified_digits"] == 802
    assert payload["lambda_digits"] == 299282
    # exact counts stop at the first stage wider than the working width
    assert evolved[0][-1].n < 9


# -- gen-recursions ---------------------------------------------------------------


def test_gen_recursions_writes_cache(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen-recursions", "--d", "3",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    path = cache_path(tmp_path, 3)
    assert str(path) in out
    assert path.read_text().startswith("# d=3 basis=c0..c4\n")


@pytest.mark.parametrize("argv, failed", [
    (("gen-recursions", "--d", "2"), "write"),
    (("verify", "--d", "2", "--n-max", "1"), "read"),
], ids=["gen-recursions", "verify"])
def test_a_cache_write_failure_ends_in_one_error_line(tmp_path, argv, failed):
    # a directory where the cache file goes, which no command can write:
    # gen-recursions fails on the write, verify already on the read, so it
    # neither warns that it regenerates the file nor tries to
    path = cache_path(tmp_path, 2)
    path.mkdir()
    run = run_python("-m", "hanoi_dimer", *argv, "--cache-dir", str(tmp_path))
    assert (run.returncode, run.stdout) == (1, "")
    assert "Traceback" not in run.stderr
    error_lines = [line for line in run.stderr.splitlines() if line.startswith("error:")]
    assert error_lines == [f"error: cannot {failed} cache file {path}: Is a directory"]
    assert run.stderr == error_lines[0] + "\n"
    assert path.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_verify_refuses_a_cache_file_it_cannot_read(capsys, tmp_path, monkeypatch):
    # a file verify may not read is no corrupt text: one error line, exit 1,
    # no regeneration promised and nothing written (root reads a chmod 000
    # file, so the refusal is simulated)
    path = cache_path(tmp_path, 2)
    path.write_bytes(cache_bytes(2))
    real_read_text = Path.read_text

    def no_permission(self, *args, **kwargs):
        if self == path:
            raise PermissionError(13, "Permission denied")
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", no_permission)
    code, out, err = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                             "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read cache file {path}: Permission denied\n"
    assert path.read_bytes() == cache_bytes(2)
    assert list(tmp_path.iterdir()) == [path]


def test_save_system_removes_its_temporary_file_when_the_write_fails(tmp_path,
                                                                    monkeypatch):
    path = cache_path(tmp_path, 2)

    def full_disk(self, target):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "replace", full_disk)
    with pytest.raises(HanoiDimerError,
                       match=f"^cannot write cache file {re.escape(str(path))}: "
                             "No space left on device$"):
        save_system(generate(2), path)
    assert list(tmp_path.iterdir()) == []


def test_gen_recursions_scan_work_cap(capsys, tmp_path):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "gen-recursions", "--d", "7",
                           "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "scan-work cap" in err
    assert not cache_path(tmp_path, 7).exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--n-max", "1", "--cache-dir", "CACHE"),
    ("appendix-check", "--which", "omega"),
], ids=["verify", "appendix-check"])
def test_generating_commands_refuse_d7_on_the_scan_work_cap(capsys, tmp_path,
                                                            argv):
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--d", "7", *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    # the scan-work cap is a constant: its refusal names no flag
    assert "scan-work cap" in err and "raise it with" not in err
    assert not cache_path(tmp_path, 7).exists()


# the first dimension whose one-step scan work is over the cap
FIRST_D_OVER_SCAN_CAP = next(d for d in count(2)
                             if sum(scan_pairs(d)) > SCAN_WORK_CAP)


def test_count_applies_scan_work_cap_before_evolving(capsys, tmp_path):
    d = FIRST_D_OVER_SCAN_CAP
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--d", str(d), "--n", "1",
                             "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "resource cap" in err and "scan-work cap" in err
    assert not cache_path(tmp_path, d).exists()


@pytest.mark.parametrize("argv", [
    ("entropy", "--k", "6"),
    ("ratios", "--max-n", "2"),
    ("count", "--n", "0"),
], ids=["entropy", "ratios", "count-n0"])
def test_scan_only_commands_refuse_the_first_d_over_the_scan_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--d", str(FIRST_D_OVER_SCAN_CAP),
                             *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "scan-work cap" in err


@pytest.mark.parametrize("argv", [
    ("count", "--d", "1000000", "--n", "1"),
    ("entropy", "--d", "3", "--k", "1000000000000"),
    ("gen-recursions", "--d", "100000000000000000000"),
    ("count", "--d", "3", "--n", "1000000"),
    ("verify", "--d", "2", "--n-max", "1000000", "--cache-dir", "CACHE"),
    ("verify", "--d", "6", "--n-max", "1000000", "--cache-dir", "CACHE"),
    ("ratios", "--d", "3", "--max-n", "1000000"),
], ids=["count-d1e6", "entropy-k1e12", "gen-recursions-d1e20", "count-n1e6",
        "verify-n-max1e6", "verify-d6-n-max1e6", "ratios-max-n1e6"])
def test_huge_d_or_k_is_refused_without_building_it(capsys, tmp_path, argv):
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "resource cap" in err
    # nothing is generated, so no cache file is written
    assert list(tmp_path.iterdir()) == []


def test_cache_env_variable_respected(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HANOI_DIMER_CACHE", str(tmp_path))
    code, _, _ = run_cli(capsys, "gen-recursions", "--d", "2")
    assert code == 0
    assert cache_path(tmp_path, 2).exists()


# -- appendix-check -----------------------------------------------------------------


def test_appendix_check_d2(capsys):
    code, out, _ = run_cli(capsys, "appendix-check", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all("PASS" in line for line in lines)


def test_appendix_check_not_attempted_exit(capsys):
    code, out, _ = run_cli(capsys, "appendix-check", "--d", "3",
                           "--which", "contraction", "--term-budget", "50")
    assert code == 3
    assert "NOT ATTEMPTED" in out


def test_appendix_check_not_attempted_states_the_reason_once(capsys):
    code, out, _ = run_cli(capsys, "appendix-check", "--d", "2", "--which",
                           "omega", "--term-budget", "1")
    assert code == 3
    assert out == (
        "omega-ascending d=2: NOT ATTEMPTED (gap expansion would pass 24 raw "
        "terms, above the budget of 1; raise it with --term-budget)\n"
    )


D3_ALL_PASS = ("omega-ascending d=3: PASS (384 terms)\n"
               "alpha-descending d=3: PASS (1020 terms)\n"
               "quadratic-contraction d=3: PASS (14552 terms)\n")
# the largest price `--d 3 --which all` checks against --term-budget: a
# gap-expansion pass of the contraction.  Budgets of 0, -1 and 2.5 exit 2
# (test_out_of_range_flag_is_a_usage_error)
D3_ALL_PRICE = 14834


@pytest.mark.parametrize("budget", [D3_ALL_PRICE, 10**30])
def test_a_term_budget_at_or_above_the_largest_price_passes(capsys, budget):
    code, out, err = run_cli(capsys, "appendix-check", "--d", "3", "--which",
                             "all", "--term-budget", str(budget))
    assert (code, out, err) == (0, D3_ALL_PASS, "")


def test_a_term_budget_one_below_the_largest_price_exits_3(capsys):
    code, out, err = run_cli(capsys, "appendix-check", "--d", "3", "--which",
                             "all", "--term-budget", str(D3_ALL_PRICE - 1))
    assert (code, err) == (3, "")
    assert out == (
        "omega-ascending d=3: PASS (384 terms)\n"
        "alpha-descending d=3: PASS (1020 terms)\n"
        "quadratic-contraction d=3: NOT ATTEMPTED (gap expansion would pass "
        f"{D3_ALL_PRICE} raw terms, above the budget of {D3_ALL_PRICE - 1}; "
        "raise it with --term-budget)\n")


# -- cap advice ----------------------------------------------------------------------

ADVICE = re.compile(r"raise it with (--[a-z-]+)")
CAP = re.compile(r"(?:cap|budget) of (\d+)")
# the size the refused instance needs, where the refusal can tell it
NEEDED = re.compile(r"(\d+) [a-z ]+, above the")


def with_flag(argv: list[str], flag: str, value: int | str) -> list[str]:
    if flag in argv:
        argv = list(argv)
        argv[argv.index(flag) + 1] = str(value)
        return argv
    return [*argv, flag, str(value)]


@pytest.mark.parametrize("argv", [
    ("count", "--d", "2", "--n", "3", "--digit-cap", "5"),
    ("ratios", "--d", "2", "--max-n", "3", "--digit-cap", "5"),
    ("entropy", "--d", "2", "--k", "3", "--precision", "40", "--digit-cap", "5"),
    ("verify", "--d", "2", "--n-max", "1", "--digit-cap", "2", "--cache-dir", "CACHE"),
    ("appendix-check", "--d", "2", "--which", "omega", "--term-budget", "1"),
    ("appendix-check", "--d", "3", "--which", "contraction", "--term-budget", "50"),
    ("oracle", "--d", "2", "--n", "1", "--memo-cap", "4"),
    ("verify", "--d", "2", "--n-max", "1", "--memo-cap", "4", "--cache-dir", "CACHE"),
    ("oracle", "--d", "2", "--n", "3"),
    ("verify", "--d", "2", "--n-max", "3", "--cache-dir", "CACHE"),
    ("oracle", "--d", "3", "--n", "1", "--emit-graph", "--vertex-cap", "10"),
    ("oracle", "--d", "3", "--n", "1", "--vertex-cap", "10"),
], ids=["count-digit", "ratios-digit", "entropy-digit", "verify-digit",
        "appendix-term-d2", "appendix-term-d3", "oracle-memo", "verify-memo",
        "oracle-vertex", "verify-oracle-vertex", "oracle-emit-graph-vertex",
        "oracle-build-vertex"])
def test_following_cap_advice_gets_past_the_cap(capsys, tmp_path, argv):
    # every refusal names a flag of the command that refused; setting it to
    # the size the refusal reports passes that check, so following the
    # advice ends in success.  A memo refusal cannot know the size it
    # needs, so it is followed by doubling the cap.
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    parser = build_parser()
    code, out, err = run_cli(capsys, *argv)
    if argv[0] == "verify" and "--memo-cap" not in argv:
        # the digit and oracle vertex caps refuse before any stage is checked
        # or the system is generated and cached; only the memo cap cannot be
        # priced before the oracle runs
        assert out == ""
        assert list(tmp_path.iterdir()) == []
    for _ in range(5):
        assert code == 3
        message = err or out  # appendix-check reports NOT ATTEMPTED on stdout
        flag = ADVICE.search(message).group(1)
        cap = int(CAP.search(message).group(1))
        needed = NEEDED.search(message)
        size = int(needed.group(1)) if needed else 2 * cap
        assert size > cap
        argv = with_flag(argv, flag, size)
        assert parser.parse_known_args(argv)[1] == []
        code, out, err = run_cli(capsys, *argv)
        if code == 0:
            return
    pytest.fail(f"still refused after following the advice: {argv}")


@pytest.mark.parametrize("argv, refusal", [
    (("--n-max", "3"), "oracle refuses 81 vertices, above the cap of 40"),
    (("--n-max", "1000000000000000000"), "oracle refuses TH_2(1000000000000000000), "
     "which has at least 2^1000000000000000001 vertices, above the cap of 40"),
    (("--n-max", "7", "--oracle-vertex-cap", "7000"),
     "oracle refuses 6561 vertices: it recurses once per vertex, past its "
     f"fixed ceiling of {recursion_ceiling()}"),
], ids=["cap", "far-past-the-cap", "recursion-ceiling"])
def test_verify_prices_its_largest_oracle_graph_before_any_work(capsys, tmp_path,
                                                                argv, refusal):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--d", "2", *argv,
                             "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith(f"resource cap: {refusal}")
    assert list(tmp_path.iterdir()) == []


def test_oracle_far_past_the_vertex_cap_exits_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "oracle", "--d", "2", "--n", "10000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "raise it with --vertex-cap" in err


# -- usage errors --------------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--d", "3"])  # missing --n
    assert exc.value.code == 2


def test_dimension_validation(capsys):
    code, _, err = run_cli(capsys, "oracle", "--d", "1", "--n", "0")
    assert code == 2
    assert "at least 2" in err


def test_negative_digits_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "ratios", "--d", "3", "--max-n", "2",
                             "--digits", "-1")
    assert (code, out) == (2, "")
    assert "usage error: --digits must be >= 0" in err


# each integer flag's usage error; --digits 0 is valid
FLAG_ERRORS = {
    "--d": ("--d must be at least 2", ("0", "-1")),
    "--k": ("bound stage k must be >= 1", ("0", "-1")),
    "--digits": ("--digits must be >= 0", ("-1",)),
    "--precision": ("precision must be positive", ("0", "-1")),
    "--digit-cap": ("digit_cap must be positive", ("0", "-1")),
    "--term-budget": ("term_budget must be positive", ("0", "-1")),
    "--memo-cap": ("memo_cap must be positive", ("0", "-1")),
    "--vertex-cap": ("vertex_cap must be positive", ("0", "-1")),
    "--oracle-vertex-cap": ("oracle_vertex_cap must be positive", ("0", "-1")),
    "--n": ("stage n must be >= 0", ("-1",)),
    "--n-max": ("n_max must be >= 0", ("-1",)),
    "--max-n": ("need at least one vector at stage >= 1 (stage-0 ratios are "
                "undefined: c1(0) = 0)", ("0", "-1")),
}
# a valid invocation of each command and the integer flags it takes
COMMAND_FLAGS = {
    "gen-recursions": (("--d", "2", "--cache-dir", "CACHE"), ("--d",)),
    "count": (("--d", "2", "--n", "1"), ("--d", "--n", "--digit-cap")),
    "oracle": (("--d", "2", "--n", "1"),
               ("--d", "--n", "--vertex-cap", "--oracle-vertex-cap", "--memo-cap")),
    "verify": (("--d", "2", "--n-max", "1", "--cache-dir", "CACHE"),
               ("--d", "--n-max", "--oracle-vertex-cap", "--memo-cap",
                "--digit-cap")),
    "ratios": (("--d", "2", "--max-n", "2"),
               ("--d", "--max-n", "--digits", "--digit-cap")),
    "entropy": (("--d", "2", "--k", "3", "--precision", "40"),
                ("--d", "--k", "--precision", "--digit-cap")),
    "appendix-check": (("--d", "2", "--which", "omega"), ("--d", "--term-budget")),
}


# the flags also run at 10**30; a huge --precision is left out, as nothing
# prices entropy's work at a given precision yet (ROADMAP item 1)
HUGE_VALUE_FLAGS = ("--digit-cap", "--memo-cap", "--vertex-cap",
                    "--oracle-vertex-cap", "--term-budget", "--digits")


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in COMMAND_FLAGS.items()
    for flag in flags
])
def test_out_of_range_flag_is_a_usage_error(capsys, tmp_path, command, flag):
    base, _ = COMMAND_FLAGS[command]
    argv = [command, *(str(tmp_path) if a == "CACHE" else a for a in base)]
    message, invalid = FLAG_ERRORS[flag]
    for value in invalid:
        code, out, err = run_cli(capsys, *with_flag(argv, flag, value))
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
    with pytest.raises(SystemExit) as exc:
        main(with_flag(argv, flag, "2.5"))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())
    if flag in HUGE_VALUE_FLAGS:
        # 10**30 prints what the default prints, or is refused, in under 1 s
        argv = [command, *(str(tmp_path / "huge") if a == "CACHE" else a for a in base)]
        at_default = run_cli(capsys, *argv)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *with_flag(argv, flag, 10**30))
        assert time.perf_counter() - start < 1
        assert (code, out, err) == at_default or (code, out) == (3, "")


def test_census_cap_flag_is_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-recursions", "--d", "2", "--cache-dir", str(tmp_path),
              "--census-cap", "5"])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("k", ["0", "-2"])
def test_bound_stage_below_one_is_a_usage_error(capsys, k):
    code, out, err = run_cli(capsys, "entropy", "--d", "3", "--k", k)
    assert (code, out) == (2, "")
    assert "usage error: bound stage k must be >= 1" in err


# -- cache checks --------------------------------------------------------------------


def test_verify_regenerates_cache_of_another_dimension(tmp_path):
    save_system(generate(4), cache_path(tmp_path, 3))
    run = run_python("-m", "hanoi_dimer", "verify", "--d", "3", "--n-max", "1",
                     "--cache-dir", str(tmp_path))
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1] == "stage 1: OK (5 class counts + total)"
    (line,) = run.stderr.splitlines()
    assert line.startswith("warning: regenerating corrupt recursion cache: ")
    assert "d=4" in line
    assert cache_path(tmp_path, 3).read_text().startswith("# d=3 basis=c0..c4\n")


def test_cli_warnings_are_one_stderr_line_whatever_the_warnings_filter(tmp_path,
                                                                      monkeypatch):
    # the commands print their warnings themselves, so a filter that turns
    # Python warnings into errors changes nothing
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    save_system(generate(4), cache_path(tmp_path, 3))
    verify = run_python("-m", "hanoi_dimer", "verify", "--d", "3", "--n-max", "1",
                        "--cache-dir", str(tmp_path))
    entropy_run = run_python("-m", "hanoi_dimer", "entropy", "--d", "3", "--k", "8",
                             "--precision", "40")
    for run, text in ((verify, "regenerating corrupt recursion cache: "),
                      (entropy_run, "precision 40 too small to separate the bounds")):
        assert run.returncode == 0, run.stderr
        (line,) = run.stderr.splitlines()
        assert line.startswith(f"warning: {text}")
    assert json.loads(entropy_run.stdout)["warning"] == line.removeprefix("warning: ")


@pytest.mark.parametrize("argv", [
    ("count", "--n", "1"),
    ("ratios", "--max-n", "2"),
    ("entropy", "--k", "3", "--precision", "40"),
], ids=["count", "ratios", "entropy"])
def test_scan_only_commands_ignore_a_tampered_cache(capsys, tmp_path, argv):
    # the self-consistent tamper that verify exposes cannot reach these commands
    clean = run_cli(capsys, argv[0], "--d", "2", *argv[1:],
                    "--cache-dir", str(tmp_path / "none"))
    assert clean[0] == 0
    assert not (tmp_path / "none").exists()
    run_cli(capsys, "gen-recursions", "--d", "2", "--cache-dir", str(tmp_path))
    path = cache_path(tmp_path, 2)
    text = path.read_text()
    assert text.count("8*c0^3") == 2
    path.write_text(text.replace("8*c0^3", "9*c0^3"))
    assert run_cli(capsys, argv[0], "--d", "2", *argv[1:],
                   "--cache-dir", str(tmp_path)) == clean


def test_verify_reports_a_scan_mismatch(capsys, tmp_path, monkeypatch):
    real_step = evolve.step

    def off_by_one(v):
        got = real_step(v)
        counts = (got.counts[0] + 1,) + got.counts[1:]
        return BoundaryClassVector(d=got.d, n=got.n, counts=counts, m=got.m + 1)

    monkeypatch.setattr(evolve, "step", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert out.splitlines() == ["stage 0: OK (4 class counts + total)",
                                "stage 1: MISMATCH c0: scan 19, oracle 18"]


# -- start-up ------------------------------------------------------------------------


def test_start_up_imports_no_dataclasses_or_inspect():
    # every command pays this import; dataclasses pulls in inspect, and each
    # frozen dataclass compiles its generated methods at every import
    run = run_python("-c", "import sys\n"
                           "from hanoi_dimer import cli\n"
                           "cli.build_parser()\n"
                           "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "[]\n"


def loaded_modules(code: str) -> set[str]:
    """The hanoi_dimer modules a fresh interpreter has loaded after code."""
    run = run_python("-c", code + "\nimport json, sys\n"
                     "print(json.dumps([m.removeprefix('hanoi_dimer.') for m in sys.modules"
                     " if m.startswith('hanoi_dimer.')]))")
    assert (run.returncode, run.stderr) == (0, "")
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_the_package_and_the_parser_load_no_library_module():
    # without a bytecode cache (PYTHONDONTWRITEBYTECODE=1) every module a
    # command loads is compiled again at every run
    assert loaded_modules("import hanoi_dimer") == set()
    assert loaded_modules("from hanoi_dimer import cli\n"
                          "cli.build_parser()") == {"cli", "errors"}


@pytest.mark.parametrize("argv, runs, unloaded", [
    (["count", "--d", "2", "--n", "1"], "evolve",
     {"appendix_check", "entropy", "matching_oracle", "hanoi_graph", "reference_values"}),
    (["appendix-check", "--d", "2", "--which", "omega"], "appendix_check",
     {"evolve", "entropy", "matching_oracle", "hanoi_graph", "reference_values"}),
], ids=["count", "appendix-check"])
def test_a_command_loads_only_the_modules_it_runs(argv, runs, unloaded):
    loaded = loaded_modules("from hanoi_dimer import cli\n"
                            f"status = cli.main({argv!r})\n"
                            "if status:\n"
                            "    raise SystemExit(status)")
    assert runs in loaded
    assert loaded.isdisjoint(unloaded)
