"""CLI surface: commands, formats, schemas, exit codes, determinism."""

from __future__ import annotations

import json
import time
from importlib import resources
from itertools import count

import jsonschema
import pytest

from hanoi_dimer import evolve
from hanoi_dimer.cli import main
from hanoi_dimer.evolve import SCAN_WORK_CAP, BoundaryClassVector
from hanoi_dimer.recursion_gen import cache_path, generate, save_system, scan_pairs

from .helpers import run_python


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


# -- verify ----------------------------------------------------------------------


def test_verify_d3(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--d", "3", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "stage 0: OK (5 class counts + total)",
        "stage 1: OK (5 class counts + total)",
    ]


def test_verify_detects_tampered_cache(capsys, tmp_path):
    run_cli(capsys, "gen-recursions", "--d", "2", "--cache-dir", str(tmp_path))
    path = cache_path(tmp_path, 2)
    text = path.read_text()
    # bump c0^3 in the c0 and M lines together: the tampered system stays
    # self-consistent, so only the oracle comparison can expose it
    assert text.count("8*c0^3") == 2
    path.write_text(text.replace("8*c0^3", "9*c0^3"))
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "stage 1: MISMATCH c0: recursion 19, oracle 18" in out


def test_inconsistent_tamper_caught_by_integrity_layer(capsys, tmp_path):
    run_cli(capsys, "gen-recursions", "--d", "2", "--cache-dir", str(tmp_path))
    path = cache_path(tmp_path, 2)
    text = path.read_text()
    path.write_text(text.replace("c0: 8*c0^3", "c0: 9*c0^3"))
    code, _, err = run_cli(capsys, "verify", "--d", "2", "--n-max", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "error" in err


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


def test_gen_recursions_census_cap(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen-recursions", "--d", "7",
                           "--cache-dir", str(tmp_path))
    assert code == 3
    assert "census-cap" in err


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
], ids=["count-d1e6", "entropy-k1e12"])
def test_huge_d_or_k_is_refused_without_building_it(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "resource cap" in err


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
    assert "regenerating corrupt recursion cache" in run.stderr
    assert "d=4" in run.stderr
    assert cache_path(tmp_path, 3).read_text().startswith("# d=3 basis=c0..c4\n")


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
