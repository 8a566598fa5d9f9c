"""Exact evolution, ratio traces, ordering and contraction checks."""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import reference_values as ref
from hanoi_dimer.errors import CapExceeded, IntegrityError
from hanoi_dimer.multipoly import Polynomial
from hanoi_dimer import evolve
from hanoi_dimer.entropy import working_bits
from hanoi_dimer.recursion_gen import RecursionSystem
from hanoi_dimer.scan import (
    INT_RING,
    POINT_RING,
    SCAN_WORK_CAP,
    Ring,
    check_scan_work,
    corner_splits,
    interpolate_points,
    scan_pairs,
    transfer_scan,
)
from hanoi_dimer.evolve import (
    BoundaryClassVector,
    _class_counts,
    _mixed_counts,
    apply_system,
    decide_at_least,
    enclose,
    evolve_to,
    initial_vector,
    interval_step,
    step,
)
from hanoi_dimer.ratio_facts import (
    RatioTrace,
    check_contraction,
    eps_ratio_table_value,
    ratios,
    render_quotient,
)

from .helpers import (
    check_contraction_by_fractions,
    degree_profile_step,
    eps,
    eps_ratio,
    ratio,
    ratio_rows,
    render_decimal,
    render_decimal_by_fraction,
)


def test_initial_vectors_match_reference():
    assert initial_vector(3).counts == ref.CLASS_COUNTS_D3[0]
    assert initial_vector(3).m == 10
    assert initial_vector(4).counts == ref.CLASS_COUNTS_D4[0]
    assert initial_vector(4).m == 26
    assert initial_vector(2).counts == ref.CLASS_COUNTS_D2[0]


def test_step_d3_reproduces_stage_one():
    v1 = step(initial_vector(3))
    assert v1.counts == ref.CLASS_COUNTS_D3[1]
    assert v1.m == ref.TOTALS_D3[1]


def test_two_steps_d3_reproduce_stage_two():
    v = initial_vector(3)
    for _ in range(2):
        v = step(v)
    assert v.counts == ref.CLASS_COUNTS_D3[2]
    assert v.counts[0] == 49464202269253193
    assert v.m == ref.TOTALS_D3[2]


def test_step_d4_reproduces_stage_one():
    v1 = step(initial_vector(4))
    assert v1.m == 48645865
    assert v1.counts[5] == 3779500
    assert v1.counts == ref.CLASS_COUNTS_D4[1]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scan_equals_polynomial_evaluation(systems, d):
    v = initial_vector(d)
    for n in (1, 2, 3):
        scanned = step(v)
        assert scanned.n == n
        assert scanned == apply_system(systems(d), v)
        v = scanned


def test_polynomial_evaluation_exposes_a_tampered_system(systems):
    # c0^3 bumped in c0 and M together keeps the total invariant, so only a
    # comparison with the scan (what verify runs) can tell the systems apart
    sys2 = systems(2)
    bump = Polynomial(sys2.varset, {(3, 0, 0, 0): 1})
    tampered = RecursionSystem(
        d=2, varset=sys2.varset,
        class_polys=(sys2.class_polys[0] + bump,) + sys2.class_polys[1:],
        m_poly=sys2.m_poly + bump,
    )
    v1 = step(initial_vector(2))
    assert apply_system(sys2, v1) == step(v1)
    assert apply_system(tampered, v1) != step(v1)


# multiplies one step's two scans run, d = 2..8: each (state, choice) pair
# of the t-scan once per point of its value, and each of the M scan once
ENUMERATED_PAIRS = {2: 36, 3: 115, 4: 348, 5: 1024, 6: 2964, 7: 8486,
                    8: 24100}


def enumerate_scan_pairs(d: int) -> int:
    """Run step's two scans over a ring whose values are their point counts
    and which counts the points each choice weight multiplies."""
    taken = 0

    def muladd(acc, points, factor):
        nonlocal taken
        if factor is None:  # a choice weight
            taken += points
            return points
        return points + factor  # a copy's factor adds factor points

    ring = Ring(unit=1, scalar=lambda weight: None, muladd=muladd)
    assert transfer_scan(d, [1] * (d + 1), ring) == d + 2
    assert transfer_scan(d, [0] * (d + 1), ring) == 1
    return taken


@pytest.mark.parametrize("d", range(2, 9))
def test_scan_price_bounds_the_enumerated_pairs(d):
    assert enumerate_scan_pairs(d) == ENUMERATED_PAIRS[d]
    assert sum(scan_pairs(d)) >= ENUMERATED_PAIRS[d]


def test_scan_work_cap_admits_d12_and_refuses_d13():
    assert sum(scan_pairs(12)) == 1_484_006 <= SCAN_WORK_CAP
    assert sum(scan_pairs(13)) == 4_115_170
    check_scan_work(12)
    with pytest.raises(CapExceeded, match="scan-work cap"):
        check_scan_work(13)
    # the cap is checked for any target stage, before the stage-0 vector
    with pytest.raises(CapExceeded, match="scan-work cap"):
        evolve_to(13, 0)


def test_scan_work_cap_refuses_a_huge_d_after_a_few_terms():
    with pytest.raises(CapExceeded):
        check_scan_work(10**9)


# a fixed 64-bit point (the largest 64-bit prime)
Y64 = 2**64 - 59


@pytest.mark.parametrize("d", range(2, 13))
def test_scan_at_all_ones_gives_closed_form_totals(d):
    # c_j = y^j makes every mixed count N(a, b) = y^b (1+y)^(d+1-a-b); each of
    # the C(d+1,2) connector edges then adds y^2 + 2y + 2, so c_k' =
    # y^k (y^2+2y+2)^C(d+1,2) and M' = (1+y)^(d+1) (y^2+2y+2)^C(d+1,2).  At
    # y = 1 these are 5^C(d+1,2) and 2^(d+1) times that.  For d >= 7, past the
    # reach of the oracle and of generate, this is the only check of the scan
    # that shares none of its code, and at d = 11 and 12 (y = 2 alone, for
    # time) the only one of its 13- and 14-point interpolation.
    for y in (1, 2, Y64) if d <= 10 else (2,):
        mixed = _mixed_counts(d, tuple(y**j for j in range(d + 2)))
        assert mixed == {(a, b): y**b * (1 + y) ** (d + 1 - a - b)
                         for a, b in corner_splits(d)}
        edges = (y * y + 2 * y + 2) ** comb(d + 1, 2)
        assert _class_counts(d, mixed) == tuple(
            y**k * edges for k in range(d + 2))
        free = [mixed[deg, 0] for deg in range(d + 1)]
        assert transfer_scan(d, free, INT_RING) == (1 + y) ** (d + 1) * edges


@pytest.mark.parametrize("d,stages", [(2, 3), (3, 3), (4, 3), (5, 3), (6, 2)])
def test_step_and_interval_step_match_degree_profile_step(d, stages):
    v = initial_vector(d)
    for _ in range(stages):
        counts, m = degree_profile_step(d, v.counts)
        exact = enclose(v, max(v.counts).bit_length())
        narrow = enclose(v, 24)
        v = step(v)
        assert (v.counts, v.m) == (counts, m)
        assert interval_step(exact, 10**6).lo == counts
        # a narrowed step is the reference image of each end, cut by one shift
        got = interval_step(narrow, 24)
        drop = got.shift - narrow.shift * (d + 1)
        assert got.lo == tuple(c >> drop
                               for c in degree_profile_step(d, narrow.lo)[0])
        assert got.hi == tuple(-(-c >> drop)
                               for c in degree_profile_step(d, narrow.hi)[0])


def test_moving_a_unit_between_t_coefficients_raises(monkeypatch):
    # the coefficients' sum is unchanged, so only the divisibility of each
    # coefficient by its corner choices catches a count moved from one class
    # to another
    def skewed(values):
        coeffs = interpolate_points(values)
        coeffs[1] -= 1
        coeffs[0] += 1
        return coeffs

    v = step(initial_vector(3))
    monkeypatch.setattr(evolve, "interpolate_points", skewed)
    with pytest.raises(IntegrityError, match="not divisible by the C"):
        step(v)
    with pytest.raises(IntegrityError, match="not divisible by the C"):
        interval_step(enclose(v, 64), 64)


@pytest.mark.parametrize("d", range(2, 7))
def test_a_unit_off_at_any_point_of_the_t_scan_raises(monkeypatch, d):
    # t = 1 is no point, so a unit moved at one point changes the classes'
    # binomial sum, which the M scan checks, if no division catches it first
    v = step(initial_vector(d))
    for point in range(d + 2):
        for delta in (1, -1):
            def skewed(d, factors, ring):
                result = transfer_scan(d, factors, ring)
                if ring is POINT_RING:
                    result[point] += delta
                return result

            monkeypatch.setattr(evolve, "transfer_scan", skewed)
            with pytest.raises(IntegrityError):
                step(v)


def test_evolve_d4_stage_two():
    stages = evolve_to(4, 2)
    assert stages[2].counts[0] == 12567379442065248794102222711306394841
    assert stages[2].counts == ref.CLASS_COUNTS_D4[2]
    assert stages[2].m == ref.TOTALS_D4[2]


def test_evolve_to_zero_returns_initial():
    stages = evolve_to(3, 0)
    assert stages == [initial_vector(3)]


def test_evolve_d2_matches_frozen_oracle_counts():
    stages = evolve_to(2, 2)
    for n in (0, 1, 2):
        assert stages[n].counts == ref.CLASS_COUNTS_D2[n]
        assert stages[n].m == ref.TOTALS_D2[n]


def test_digit_guard_aborts_with_prediction():
    with pytest.raises(CapExceeded) as err:
        evolve_to(3, 30)
    assert "predict" in str(err.value)


def test_vector_integrity_total_mismatch():
    with pytest.raises(IntegrityError):
        BoundaryClassVector(d=3, n=1, counts=(1, 2, 3, 4, 5), m=999)


def test_vector_integrity_monotonicity():
    # ascending demanded for d=3
    good = (1010, 1242, 1556, 1983, 2571)
    bad = (1242, 1010, 1556, 1983, 2571)
    total = sum(
        __import__("math").comb(4, k) * c for k, c in enumerate(bad)
    )
    with pytest.raises(IntegrityError):
        BoundaryClassVector(d=3, n=1, counts=bad, m=total)
    BoundaryClassVector(
        d=3, n=1, counts=good,
        m=sum(__import__("math").comb(4, k) * c for k, c in enumerate(good)),
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_strict_class_monotonicity_every_stage(d):
    n_max = 2 if d >= 6 else 3
    for v in evolve_to(d, n_max)[1:]:
        pairs = list(zip(v.counts, v.counts[1:]))
        if d == 2:
            assert all(a > b for a, b in pairs)
        else:
            assert all(a < b for a, b in pairs)


def test_rerunning_is_bit_identical():
    a = evolve_to(3, 3)
    b = evolve_to(3, 3)
    assert a == b


# -- ratios ---------------------------------------------------------------------


def test_ratio_trace_matches_reference_table_d3(trajectories):
    trace = ratios(trajectories(3, 4))
    for n, row in ref.RATIOS_D3.items():
        got = tuple(render_decimal(ratio(trace, n, j), 15) for j in range(4))
        assert got == row


def test_ratio_trace_matches_reference_table_d4(trajectories):
    trace = ratios(trajectories(4, 4))
    for n, row in ref.RATIOS_D4.items():
        got = tuple(render_decimal(ratio(trace, n, j), 14) for j in range(5))
        assert got == row


def test_ratio_requires_stage_one():
    with pytest.raises(ValueError):
        ratios([initial_vector(3)])
    with pytest.raises(ZeroDivisionError, match="ratio r0 undefined at stage 0"):
        row = initial_vector(3).counts
        RatioTrace(d=3, stages=(0,), lo=(row,), hi=(row,))


def test_eps_ratio_table_rendering(trajectories):
    trace = ratios(trajectories(3, 5))
    for n, expected in ref.EPS_RATIO_TABLE_D3.items():
        assert eps_ratio_table_value(trace, n) == expected


def test_eps_ratio_converges(trajectories):
    trace = ratios(trajectories(3, 5))
    limit = Fraction(
        int(ref.EPS_RATIO_LIMIT_D3.replace("0.", "")), 10**14
    ) / 10
    assert abs(eps_ratio(trace, 4) - limit) < Fraction(1, 10**10)


def test_render_decimal_half_even_ties():
    assert render_decimal(Fraction(1, 8), 2) == "0.12"  # 0.125 -> even 2
    assert render_decimal(Fraction(3, 8), 2) == "0.38"  # 0.375 -> even 8
    assert render_decimal(Fraction(1, 8), 3) == "0.125"
    assert render_decimal(Fraction(7, 5), 1, mode="floor") == "1.4"
    assert render_decimal(Fraction(999, 1000), 2, mode="floor") == "0.99"
    # unreduced pairs give the digits of their reduced value
    assert render_quotient(2, 16, 2) == "0.12"
    assert render_quotient(-3, -8, 2) == "0.38"
    assert render_quotient(14, 10, 1, mode="floor") == "1.4"


MODES = st.sampled_from(["half_even", "floor"])


def assert_renders_as_fraction(num, den, places, mode):
    """render_quotient(num, den) and render_decimal agree with the reference
    on Fraction(num, den), a negative value raising the same ValueError."""
    try:
        want = render_decimal_by_fraction(Fraction(num, den), places, mode)
    except ValueError as err:
        for render in (lambda: render_quotient(num, den, places, mode),
                       lambda: render_decimal(Fraction(num, den), places, mode)):
            with pytest.raises(ValueError) as got:
                render()
            assert str(got.value) == str(err)
        return
    assert render_quotient(num, den, places, mode) == want
    assert render_decimal(Fraction(num, den), places, mode) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40),
       st.integers(-10**40, 10**40).filter(bool),
       st.integers(0, 60), MODES)
def test_render_quotient_matches_the_fraction_rendering(num, den, places, mode):
    assert_renders_as_fraction(num, den, places, mode)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**20), st.integers(0, 60), st.integers(1, 10**6),
       st.sampled_from([1, -1]), MODES)
def test_render_quotient_half_even_ties(q, places, scale, sign, mode):
    # (2q+1) / (2 10^places) sits halfway between two last digits, as an
    # unreduced pair scaled by scale (and both signs flipped when sign < 0)
    num, den = sign * (2 * q + 1) * scale, sign * 2 * 10**places * scale
    assert_renders_as_fraction(num, den, places, mode)
    last = q + (q % 2 if mode == "half_even" else 0)
    assert render_quotient(num, den, places, mode).replace(".", "") == str(
        last).rjust(places + 1, "0")


def test_render_quotient_rejects_a_zero_denominator_and_unknown_mode():
    with pytest.raises(ZeroDivisionError):
        render_quotient(1, 0, 3)
    with pytest.raises(ValueError, match="unknown rendering mode"):
        render_quotient(1, 3, 3, mode="ceiling")


# -- contraction report -----------------------------------------------------------


def test_contraction_report_d3(trajectories):
    trace = ratios(trajectories(3, 5))
    report = check_contraction(trace)
    assert report.ok
    assert report.chain_violations == ()
    assert report.alpha_strictly_decreasing
    assert report.omega_strictly_increasing
    assert report.eps_contraction_ok
    assert report.limit_digits.startswith("0.7929391056976813")
    assert report.limit_digits.startswith(ref.RATIO_LIMIT_DIGITS[3])


def test_contraction_report_d4(trajectories):
    trace = ratios(trajectories(4, 5))
    report = check_contraction(trace)
    assert report.ok
    assert report.limit_digits.startswith("0.6698857500417478")
    assert report.limit_digits.startswith(ref.RATIO_LIMIT_DIGITS[4])


def test_contraction_report_d2_tolerates_stage_one_inversion(trajectories):
    trace = ratios(trajectories(2, 5))
    report = check_contraction(trace)
    assert report.ok
    assert report.chain_ok_from == 2
    assert all(stage == 1 for stage, _ in report.chain_violations)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ratio_range_by_dimension(trajectories, d):
    trace = ratios(trajectories(d, 3))
    for row in ratio_rows(trace):
        if d == 2:
            assert all(r > 1 for r in row)
        else:
            assert all(0 < r < 1 for r in row)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eps_quadratic_contraction(trajectories, d):
    trace = ratios(trajectories(d, 4))
    for n in (1, 2, 3):
        assert eps(trace, n + 1) < 3 * eps(trace, n) ** 2


# the stages the trajectories fixture evolves, per dimension
FIXTURE_STAGES = {2: 6, 3: 6, 4: 6, 5: 4, 6: 3}


@pytest.mark.parametrize("d", sorted(FIXTURE_STAGES))
def test_contraction_report_matches_fraction_reference(trajectories, d):
    vectors = trajectories(d, FIXTURE_STAGES[d])
    # every run of consecutive stages, so each stage is both first and last
    for first in range(1, len(vectors)):
        for last in range(first, len(vectors)):
            trace = ratios(vectors[first:last + 1])
            got = check_contraction(trace)
            want = check_contraction_by_fractions(trace)
            for field in got._fields:
                assert getattr(got, field) == getattr(want, field), (
                    first, last, field)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fraction_accessors_match_the_ratio_rows(trajectories, d):
    trace = ratios(trajectories(d, 5))
    for n, row, c in zip(trace.stages, ratio_rows(trace), trace.lo):
        assert row == tuple(Fraction(c[j], c[j + 1]) for j in range(d + 1))
        assert [ratio(trace, n, j) for j in range(d + 1)] == list(row)
        assert eps(trace, n) == row[0] - row[d]
        if n + 1 in trace.stages:
            assert eps_ratio(trace, n) == eps(trace, n + 1) / eps(trace, n) ** 2


def trace_of_ratio_rows(d: int, rows) -> RatioTrace:
    """A trace at stages 1, 2, ... whose stage i has the ratios rows[i-1]
    (decimal strings), with c_{d+1} scaled to make every count an integer."""
    counts = []
    for row in rows:
        row_counts = [Fraction(1)]
        for r in reversed(row):
            row_counts.append(row_counts[-1] * Fraction(r))
        scale = lcm(*(c.denominator for c in row_counts))
        counts.append(tuple(int(c * scale) for c in reversed(row_counts)))
    return RatioTrace(d=d, stages=tuple(range(1, len(rows) + 1)),
                      lo=tuple(counts), hi=tuple(counts))


# a d=3 trace that passes every check: r_0 falls 0.9, 0.8, 0.76, r_3 rises
# 0.6, 0.7, 0.74, and eps = 0.3, 0.1, 0.02 stays below 3 eps^2 of the stage
# before (0.27, then 0.03)
PASSING_D3 = (("0.9", "0.8", "0.7", "0.6"),
              ("0.8", "0.78", "0.72", "0.7"),
              ("0.76", "0.755", "0.745", "0.74"))


def with_stage(rows, n, row):
    return rows[:n - 1] + (row,) + rows[n:]


# each trace fails exactly one check; ties sit on the failing side of the
# strict comparisons
ONE_FAILURE = {
    "chain-inverted-at-stage-2": (
        3, with_stage(PASSING_D3, 2, ("0.8", "0.72", "0.78", "0.7")),
        "ratio chain only ordered from stage 3 on", "chain_ok_from", 3),
    "chain-inverted-at-last-stage": (
        3, with_stage(PASSING_D3, 3, ("0.76", "0.745", "0.755", "0.74")),
        "ratio chain never becomes ordered", "chain_ok_from", None),
    "r0-not-decreasing": (
        3, with_stage(PASSING_D3, 3, ("0.8", "0.79", "0.785", "0.78")),
        "r0 is not strictly decreasing across stages",
        "alpha_strictly_decreasing", False),
    "r3-not-increasing": (
        3, with_stage(PASSING_D3, 3, ("0.72", "0.71", "0.705", "0.7")),
        "r3 is not strictly increasing across stages",
        "omega_strictly_increasing", False),
    "eps-at-three-eps-squared": (
        3, with_stage(PASSING_D3, 3, ("0.76", "0.75", "0.74", "0.73")),
        "eps(3) >= 3*eps(2)^2", "eps_contraction_ok", False),
    "r0-at-one": (
        3, with_stage(PASSING_D3, 1, ("1", "0.8", "0.7", "0.6")),
        "r0 not below 1 at stage 1", "ok", False),
    "d2-r2-at-one": (
        2, (("1.3", "1.1", "1"), ("1.2", "1.1", "1.05"), ("1.15", "1.12", "1.1")),
        "r2 not above 1 at stage 1", "ok", False),
}


def test_hand_built_passing_trace_passes():
    # equal neighbours within a stage do not break the chain
    for rows in (PASSING_D3,
                 with_stage(PASSING_D3, 2, ("0.8", "0.75", "0.75", "0.7"))):
        trace = trace_of_ratio_rows(3, rows)
        report = check_contraction(trace)
        assert report.ok and report.violations == ()
        assert report.chain_ok_from == 1
        assert report == check_contraction_by_fractions(trace)


@pytest.mark.parametrize("case", sorted(ONE_FAILURE))
def test_hand_built_trace_fails_exactly_one_check(case):
    d, rows, violation, flag, value = ONE_FAILURE[case]
    trace = trace_of_ratio_rows(d, rows)
    report = check_contraction(trace)
    assert not report.ok
    assert report.violations == (violation,)
    assert getattr(report, flag) == value
    # the flags that did not fail stay set
    passing = {"alpha_strictly_decreasing", "omega_strictly_increasing",
               "eps_contraction_ok"} - {flag}
    assert all(getattr(report, name) for name in passing)
    assert report == check_contraction_by_fractions(trace)


def test_hand_built_zero_numerator_is_a_nonpositive_ratio():
    # c_0 = 0 makes r_0 = 0, which also breaks the chain at that stage
    trace = trace_of_ratio_rows(3, with_stage(PASSING_D3, 1, ("0", "0.8", "0.7", "0.6")))
    report = check_contraction(trace)
    assert "nonpositive ratio at stage 1" in report.violations
    assert report.chain_violations == ((1, 0),)
    assert report == check_contraction_by_fractions(trace)


def test_ratio_trace_rejects_a_negative_denominator():
    # the cross-products decide the ratio facts only over positive denominators
    with pytest.raises(IntegrityError, match="negative class count c3"):
        RatioTrace(d=2, stages=(1,), lo=((3, 2, 1, -1),), hi=((3, 2, 1, -1),))


# -- ratio facts on enclosures -------------------------------------------------------


def test_decide_at_least_reads_the_far_ends():
    assert decide_at_least((5, 7), (1, 5)) is True
    assert decide_at_least((1, 4), (5, 9)) is False
    # overlapping ends decide nothing, in either direction
    assert decide_at_least((1, 5), (4, 9)) is None
    assert decide_at_least((4, 9), (1, 5)) is None
    # exact values always decide, ties included
    assert decide_at_least((3, 3), (3, 3)) is True
    assert decide_at_least((-2, -2), (0, 0)) is False


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_enclosed_last_stage_decides_as_the_exact_trace(trajectories, d):
    last = FIXTURE_STAGES[d]
    vectors = trajectories(d, last)
    bits = working_bits(160, last)
    want = check_contraction(ratios(vectors))
    # stepped from the exact stage before, as reproduce does, and enclosed
    for enclosed in (interval_step(enclose(vectors[last - 1], bits), bits),
                     enclose(vectors[last], bits)):
        assert not enclosed.exact
        trace = ratios(vectors[:last] + [enclosed])
        assert trace.lo[:-1] == trace.hi[:-1]
        assert check_contraction(trace) == want


@pytest.mark.parametrize("d", [3, 4])
def test_an_eight_bit_enclosure_leaves_the_facts_undecided(trajectories, d):
    vectors = trajectories(d, 6)
    trace = ratios(vectors[:6] + [interval_step(enclose(vectors[5], 8), 8)])
    assert check_contraction(trace) is None
    # at full width the enclosure is exact, and decides as the exact counts
    full = max(vectors[6].counts).bit_length()
    exact = interval_step(enclose(vectors[5], full), full)
    assert exact.exact
    assert check_contraction(ratios(vectors[:6] + [exact])) == check_contraction(
        ratios(vectors))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(8, 1024))
def test_a_decided_enclosure_agrees_with_the_exact_trace(trajectories, d, bits):
    vectors = trajectories(d, 6)
    want = check_contraction(ratios(vectors))
    got = check_contraction(ratios(vectors[:6] + [interval_step(enclose(vectors[5], bits),
                                                                bits)]))
    if got is not None:
        # the enclosure's limit prefix is certified, so the exact one extends it
        assert want.limit_digits.startswith(got.limit_digits)
        assert got == want._replace(limit_digits=got.limit_digits)


def test_enclosure_stages_have_no_single_value(trajectories):
    vectors = trajectories(3, 5)
    trace = ratios(vectors[:5] + [enclose(vectors[5], 64)])
    assert trace.ratio_pair(4, 0) == vectors[4].counts[:2]
    assert trace.eps_ratio_pair(3) == ratios(vectors).eps_ratio_pair(3)
    for read in (lambda: trace.ratio_pair(5, 0), lambda: trace.eps_pair(5),
                 lambda: trace.eps_ratio_pair(4), lambda: ratio_rows(trace)):
        with pytest.raises(ValueError, match="stage 5 is an enclosure"):
            read()
    with pytest.raises(IntegrityError, match="out of order"):
        RatioTrace(d=2, stages=(1,), lo=((3, 2, 2, 1),), hi=((3, 2, 1, 1),))


# -- interval evolution ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3), st.integers(4, 300))
def test_interval_steps_enclose_exact_counts(trajectories, d, seed, steps, bits):
    vectors = trajectories(d, 6)
    iv = enclose(vectors[seed], bits)
    for _ in range(steps):
        iv = interval_step(iv, bits)
    exact = vectors[seed + steps]
    assert iv.n == exact.n
    # the ceiling may carry into one more bit
    assert max(iv.hi).bit_length() <= bits + 1 or iv.shift == 0
    for lo, c, hi in zip(iv.lo, exact.counts, iv.hi):
        assert lo << iv.shift <= c <= hi << iv.shift


def test_enclosure_is_exact_at_full_width(trajectories):
    v = trajectories(3, 5)[5]
    iv = enclose(v, max(v.counts).bit_length())
    assert iv.exact and iv.lo == v.counts
    assert interval_step(iv, 10**6).lo == trajectories(3, 6)[6].counts
    narrow = enclose(v, 64)
    assert not narrow.exact
    assert max(narrow.hi).bit_length() == 64
    assert narrow.hi[0] - narrow.lo[0] == 1  # floor and ceiling one apart


def test_evolve_to_checks_the_digit_cap():
    with pytest.raises(CapExceeded, match="stage 30"):
        evolve_to(3, 30)


def test_a_zero_width_step_scans_the_classes_once(monkeypatch):
    v = step(initial_vector(3))
    want = step(v).counts
    calls = []
    class_counts = evolve._class_counts

    def counted(d, mixed):
        calls.append(d)
        return class_counts(d, mixed)

    monkeypatch.setattr(evolve, "_class_counts", counted)
    got = interval_step(enclose(v, 64), 64)
    assert calls == [3]
    assert got.exact and got.lo == want
    # an enclosure of nonzero width scans each end
    interval_step(enclose(v, 8), 8)
    assert calls == [3] * 3


def test_a_zero_width_step_checks_the_m_scan(monkeypatch):
    # as step does: M's own integer scan against the classes' binomial sum
    v = step(initial_vector(3))

    def tampered(d, factors, ring):
        result = transfer_scan(d, factors, ring)
        return result + 1 if ring is INT_RING else result

    monkeypatch.setattr(evolve, "transfer_scan", tampered)
    with pytest.raises(IntegrityError, match="binomial-weighted class sum"):
        interval_step(enclose(v, 64), 64)
