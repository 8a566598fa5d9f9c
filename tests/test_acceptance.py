"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them) and enforces the stated runtime budget for the work it times.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import hanoi_dimer
from hanoi_dimer import reference_values as ref
from hanoi_dimer.appendix_check import run_certificates, gap_expansion, w_power_coefficient
from hanoi_dimer.entropy import bounds, check_finite_sandwich
from hanoi_dimer.evolve import (
    check_contraction,
    eps_ratio_table_value,
    evolve_to,
    ratios,
    render_decimal,
)
from hanoi_dimer.hanoi_graph import build
from hanoi_dimer.matching_oracle import boundary_class_vector
from hanoi_dimer.multipoly import Polynomial, serialize
from hanoi_dimer.recursion_gen import reduced_ratio_form

from .helpers import REPO_DIR, load_golden_d3, parse_classic


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"exceeded {seconds}s budget: {elapsed:.2f}s"


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS -- {text}")


def test_criterion_01_stage_counts_d3():
    with budget(1.0):
        stages = evolve_to(3, 2)
        for n in (1, 2):
            assert stages[n].counts == ref.CLASS_COUNTS_D3[n]
            assert stages[n].m == ref.TOTALS_D3[n]
        assert stages[2].counts[4] == 125122091640871731
    report(1, "d=3 class counts at n=1,2 match all twelve reference integers")


def test_criterion_02_stage_counts_d4():
    with budget(1.0):
        stages = evolve_to(4, 2)
        for n in (1, 2):
            assert stages[n].counts == ref.CLASS_COUNTS_D4[n]
            assert stages[n].m == ref.TOTALS_D4[n]
        assert stages[2].m == 1209689823065753613801849265389348210254
    report(2, "d=4 class counts at n=1,2 match all fourteen reference integers")


def test_criterion_03_oracle_equivalence():
    with budget(300.0):
        for d, n_max in ((2, 2), (3, 1), (4, 1)):
            evolved = evolve_to(d, n_max)
            for n in range(n_max + 1):
                assert boundary_class_vector(build(d, n)) == evolved[n]
    report(3, "recursions equal brute-force constrained counts "
              "(d=2 n<=2, d=3 n<=1, d=4 n<=1)")


def test_criterion_04_golden_system_match(systems):
    golden = load_golden_d3()
    sys3 = systems(3)
    for k, symbol in enumerate("fghts"):
        assert serialize(sys3.class_polys[k]) == serialize(golden[symbol])
    assert serialize(sys3.m_poly) == serialize(golden["M"])
    report(4, "generated d=3 system is byte-identical to the reference "
              "transcription")


def test_criterion_05_ratio_tables(trajectories):
    trace3 = ratios(trajectories(3, 5))
    trace4 = ratios(trajectories(4, 5))
    with budget(1.0):
        for n, row in ref.RATIOS_D3.items():
            got = tuple(render_decimal(trace3.ratio(n, j), 15) for j in range(4))
            assert got == row
        for n, row in ref.RATIOS_D4.items():
            got = tuple(render_decimal(trace4.ratio(n, j), 14) for j in range(5))
            assert got == row
        for n, want in ref.EPS_RATIO_TABLE_D3.items():
            assert eps_ratio_table_value(trace3, n) == want
    report(5, "ratio tables and contraction-quotient table reproduced in "
              "every printed digit")


def test_criterion_06_entropy_d3():
    with budget(30.0):
        vectors = evolve_to(3, 6)
        result = bounds(3, 6, vectors, precision=160)
        assert result.certified_digits >= 101
        assert result.lower.as_decimal().startswith("0.65719921144295911522")
        assert result.upper.as_decimal().startswith("0.65719921144295911522")
    report(6, f"d=3 k=6 bounds share {result.certified_digits} digits "
              "with the reference prefix")


def test_criterion_07_entropy_d4():
    with budget(120.0):
        vectors = evolve_to(4, 6)
        result = bounds(4, 6, vectors, precision=160)
        assert result.certified_digits >= 120
        assert result.lower.as_decimal().startswith("0.72291383087181938879")
        assert result.upper.as_decimal().startswith("0.72291383087181938879")
    report(7, f"d=4 k=6 bounds share {result.certified_digits} digits "
              "with the reference prefix")


def test_criterion_08_entropy_d2():
    with budget(10.0):
        vectors = evolve_to(2, 6)
        result = bounds(2, 6, vectors, precision=160)
        assert result.lower.as_decimal().startswith("0.5764643016")
        assert result.upper.as_decimal().startswith("0.5764643016")
    report(8, "d=2 k=6 bounds share the reference prefix 0.5764643016")


def test_criterion_09_finite_sandwich(trajectories):
    with budget(60.0):
        for d in (3, 4):
            vectors = trajectories(d, 3)
            for k, n in ((1, 2), (1, 3), (2, 3)):
                assert check_finite_sandwich(d, k, n, vectors).ok
    report(9, "exact matching-count sandwich holds for d=3,4 at "
              "(k,n) in {(1,2),(1,3),(2,3)}")


def test_criterion_10_appendix_certificates(systems):
    with budget(600.0):
        for d in (2, 3, 4):
            reports = run_certificates(d, "all", system=systems(d))
            assert all(r.ok for r in reports), [
                (r.name, r.notes) for r in reports if not r.ok
            ]
        # d=3 spot blocks against the printed text
        reduced = reduced_ratio_form(systems(3))
        ascent = gap_expansion(reduced[3] - reduced[4], 3)
        assert w_power_coefficient(ascent, 11) == parse_classic(
            "64a+64b+64c", "abc", ("gap1", "gap2", "gap3"))
        pair0 = gap_expansion(reduced[0] * reduced[2] - reduced[1] ** 2, 3)
        assert max(e[0] for e, _ in pair0.terms()) == 20
        assert serialize(w_power_coefficient(pair0, 20)) == "1024*gap1^2"
    report(10, "monotonicity and contraction certificates pass for d=2,3,4 "
               "with printed d=3 spot coefficients")


def test_criterion_11_higher_dimension_probe_d5():
    with budget(600.0):
        vectors = evolve_to(5, 3)
        results = [bounds(5, k, vectors, precision=120) for k in (1, 2, 3)]
        for a, b in zip(results, results[1:]):
            assert b.lower.as_fraction() >= a.lower.as_fraction()
            assert b.upper.as_fraction() <= a.upper.as_fraction()
            width_a = a.upper.as_fraction() - a.lower.as_fraction()
            width_b = b.upper.as_fraction() - b.lower.as_fraction()
            assert width_b < width_a
    report(11, "d=5 bounds at k=1..3 form a strictly narrowing sandwich")


def test_criterion_12_reproduce_determinism(tmp_path):
    env = {"HANOI_DIMER_CACHE": str(tmp_path), "PYTHONHASHSEED": "random"}
    env = {**os.environ, **env}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hanoi_dimer", "reproduce"],
            capture_output=True, env=env, check=True,
        )
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == b""
    assert b"SUMMARY" in runs[0].stdout and b"0 failures" in runs[0].stdout
    report(12, "reproduce run twice is byte-identical with zero failures")


def test_reproduce_prints_the_benchmark_fixture():
    # the fixture the benchmark checks every reproduce run against
    fixture = (REPO_DIR / "perfbench" / "fixtures" / "reproduce.stdout").read_bytes()
    src = str(Path(hanoi_dimer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "hanoi_dimer", "reproduce"],
                         capture_output=True, env={**os.environ, "PYTHONPATH": path},
                         timeout=300)
    assert run.returncode == 0
    assert run.stderr == b""
    assert run.stdout == fixture
