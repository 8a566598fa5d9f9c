"""Directed logarithms and certified entropy bounds."""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product
from math import comb, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import cli, entropy
from hanoi_dimer import reference_values as ref
from hanoi_dimer.entropy import (
    bounds,
    certified_digit_prefix,
    check_finite_sandwich,
    hp_ln,
)
from hanoi_dimer.errors import IntegrityError
from hanoi_dimer.evolve import (
    BoundaryClassVector,
    _truncate,
    chain_decisions,
    enclose,
    interval_step,
)

from .helpers import exact_bounds, fraction_bracketed


def mp_ln(x, dps=220):
    with mpmath.workdps(dps):
        if isinstance(x, Fraction):
            return mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
        return mpmath.log(x)


# -- hp_ln -------------------------------------------------------------------


def test_ln_one_is_zero():
    assert hp_ln(1, 50).scaled == 0
    assert hp_ln(1, 50, "ceiling").scaled == 0


def test_ln_of_near_e_rational_is_near_one():
    p = 40
    with mpmath.workdps(80):
        e_scaled = int(mpmath.floor(mpmath.e * 10**60))
    e_rational = Fraction(e_scaled, 10**60)
    value = hp_ln(e_rational, p).as_fraction()
    assert abs(value - 1) < Fraction(1, 10 ** (p - 1))


def test_ln_ten_digits():
    lo = hp_ln(10, 60)
    assert lo.as_decimal().startswith("2.302585092994045684")
    # independent high-precision oracle brackets our directed values
    hi = hp_ln(10, 60, "ceiling")
    assert lo.as_fraction() <= hi.as_fraction()
    with mpmath.workdps(100):
        truth = mpmath.log(10)
        assert mpmath.mpf(lo.as_decimal()) <= truth <= mpmath.mpf(hi.as_decimal())


def test_ln_domain_error():
    with pytest.raises(ValueError):
        hp_ln(0)
    with pytest.raises(ValueError):
        hp_ln(Fraction(-3, 7))


@pytest.mark.parametrize("value", [2, 3, 7, 10, 12345, Fraction(355, 113),
                                   Fraction(1, 97), 10**40 + 7])
def test_directed_rounding_brackets_oracle(value):
    p = 50
    lo = hp_ln(value, p)
    hi = hp_ln(value, p, "ceiling")
    assert lo.as_fraction() <= hi.as_fraction()
    assert hi.as_fraction() - lo.as_fraction() <= Fraction(3, 10**p)
    truth = mp_ln(value)
    with mpmath.workdps(120):
        assert mpmath.mpf(str(lo.as_fraction())) <= truth
        assert truth <= mpmath.mpf(str(hi.as_fraction()))


def test_ln_additivity_of_directed_bounds():
    # ln(6) must lie between ln2+ln3 floors and ceilings
    p = 60
    six_lo = hp_ln(6, p).as_fraction()
    six_hi = hp_ln(6, p, "ceiling").as_fraction()
    parts_lo = hp_ln(2, p).as_fraction() + hp_ln(3, p).as_fraction()
    parts_hi = hp_ln(2, p, "ceiling").as_fraction() + hp_ln(3, p, "ceiling").as_fraction()
    assert parts_lo <= six_hi and six_lo <= parts_hi


def test_doubling_precision_preserves_digits():
    a = hp_ln(7, 60).as_decimal()
    b = hp_ln(7, 120).as_decimal()
    assert b.startswith(a)


def test_ln_huge_integer_truncation_path():
    m = 7**500  # 423 digits, forces the truncated-mantissa path at p=60
    lo = hp_ln(m, 60).as_fraction()
    hi = hp_ln(m, 60, "ceiling").as_fraction()
    with mpmath.workdps(200):
        truth = 500 * mpmath.log(7)
        assert mpmath.mpf(str(lo)) <= truth <= mpmath.mpf(str(hi))
    assert hi - lo < Fraction(1, 10**55)


# -- bounds ------------------------------------------------------------------


def test_bounds_d3_k6_certifies_published_prefix(trajectories):
    result = bounds(3, 6, trajectories(3, 6), precision=160)
    assert result.lower.as_decimal().startswith(ref.Z_PREFIX[3])
    assert result.upper.as_decimal().startswith(ref.Z_PREFIX[3])
    assert result.certified_digits >= ref.MIN_CERTIFIED_DIGITS_K6[3]


def test_bounds_d4_k6_certifies_published_prefix(trajectories):
    result = bounds(4, 6, trajectories(4, 6), precision=160)
    assert result.lower.as_decimal().startswith(ref.Z_PREFIX[4])
    assert result.certified_digits >= ref.MIN_CERTIFIED_DIGITS_K6[4]


def test_bounds_d2_k6_spot_value(trajectories):
    result = bounds(2, 6, trajectories(2, 6), precision=160)
    assert result.lower.as_decimal().startswith(ref.Z_PREFIX[2])
    assert result.upper.as_decimal().startswith(ref.Z_PREFIX[2])


def test_bounds_monotone_in_k(trajectories):
    vectors = trajectories(3, 6)
    prev = None
    for k in range(1, 7):
        result = bounds(3, k, vectors, precision=120)
        if prev is not None:
            assert result.lower.as_fraction() >= prev.lower.as_fraction()
            assert result.upper.as_fraction() <= prev.upper.as_fraction()
            assert result.certified_digits >= prev.certified_digits
        prev = result


def test_bounds_doubling_precision_keeps_certified_digits(trajectories):
    vectors = trajectories(3, 4)
    a = bounds(3, 4, vectors, precision=80)
    b = bounds(3, 4, vectors, precision=160)
    prefix_a, _ = certified_digit_prefix(a.lower.as_decimal(), a.upper.as_decimal())
    prefix_b, _ = certified_digit_prefix(b.lower.as_decimal(), b.upper.as_decimal())
    assert prefix_b.startswith(prefix_a[: len(prefix_b)]) or prefix_a.startswith(prefix_b)
    # every certified digit at p=80 stays certified at p=160
    assert prefix_b.startswith(prefix_a[:-1])


def test_bounds_warn_when_precision_cannot_separate(trajectories):
    with pytest.warns(UserWarning, match="too small to separate"):
        result = bounds(3, 6, trajectories(3, 6), precision=40)
    assert result.warning is not None


def test_bounds_lower_below_upper_and_brackets_oracle(trajectories):
    result = bounds(3, 3, trajectories(3, 3), precision=80)
    lo, hi = result.lower.as_fraction(), result.upper.as_fraction()
    assert lo < hi
    v = trajectories(3, 3)[3]
    lam = v.counts[4]
    omega = Fraction(v.counts[3], v.counts[4])
    alpha = Fraction(v.counts[0], v.counts[1])
    with mpmath.workdps(120):
        truth_lo = mp_ln(lam) / 4**4 + mp_ln(1 + 2 * omega + 2 * omega**2) / (2 * 4**3)
        truth_hi = mp_ln(lam) / 4**4 + mp_ln(1 + 2 * alpha + 2 * alpha**2) / (2 * 4**3)
        assert mpmath.mpf(str(lo)) <= truth_lo
        assert truth_hi <= mpmath.mpf(str(hi))


def test_bounds_refuse_unbracketed_stage_for_d2(trajectories):
    # the d=2 stage-1 ratio row has a middle inversion; the sandwich
    # precondition fails there and the bound must refuse
    with pytest.raises(IntegrityError):
        bounds(2, 1, trajectories(2, 1), precision=60)


def class_vector(d: int, n: int, counts: tuple[int, ...]) -> BoundaryClassVector:
    m = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
    return BoundaryClassVector(d=d, n=n, counts=counts, m=m)


def assert_decided_chain_brackets_every_corner(lo, hi):
    # bounds decides only the chain; the bracket it reads omega and alpha
    # under must then hold for every count vector of the box
    if all(chain_decisions(lo, hi)):
        for corner in product(*zip(lo, hi)):
            assert fraction_bracketed(corner), (lo, hi, corner)


@pytest.mark.parametrize("d, n_max", [(2, 6), (3, 6), (4, 6), (5, 3)])
def test_integer_bracket_matches_fraction_bracket(trajectories, d, n_max):
    for v in trajectories(d, n_max)[1:]:
        # on the exact stages the integer chain decision, all bounds makes,
        # refuses just what the Fraction bracket refuses
        decided = chain_decisions(v.counts, v.counts)
        assert None not in decided
        assert all(decided) == fraction_bracketed(v.counts), (d, v.n)
        for bits in (4, 8, 16, 32, 64):
            iv = enclose(v, bits)
            assert_decided_chain_brackets_every_corner(iv.lo, iv.hi)
    if d == 2:  # stage 1 has a middle inversion: neither holds there
        assert not fraction_bracketed(trajectories(2, 1)[1].counts)


@st.composite
def count_rows(draw):
    """d+2 positive counts for d = 2..6: sorted random ones, whose chain
    seldom holds, or ones built from descending ratios a_j / b_j, whose chain
    holds exactly (c_j = b_0 .. b_{j-1} a_j .. a_d)."""
    d = draw(st.integers(2, 6))
    if draw(st.booleans()):
        return tuple(sorted(draw(st.lists(st.integers(1, 10**6), min_size=d + 2,
                                          max_size=d + 2, unique=True))))
    pairs = sorted(draw(st.lists(st.tuples(st.integers(1, 999), st.integers(1, 999)),
                                 min_size=d + 1, max_size=d + 1)),
                   key=lambda pair: Fraction(*pair), reverse=True)
    return tuple(prod(b for _, b in pairs[:j]) * prod(a for a, _ in pairs[j:])
                 for j in range(d + 2))


@settings(max_examples=200)
@given(count_rows(), st.integers(1, 64))
def test_decided_chain_brackets_every_corner_on_random_enclosures(counts, bits):
    assert_decided_chain_brackets_every_corner(counts, counts)
    iv = _truncate(len(counts) - 2, 1, counts, counts, 0, bits)
    assert_decided_chain_brackets_every_corner(iv.lo, iv.hi)


def test_bracket_accepts_equal_ratios():
    # r_0 = r_j = r_d: ties bracket, as max/min of the ratio row allowed, and
    # they hold the chain
    v = class_vector(3, 1, (1, 2, 4, 8, 16))
    assert fraction_bracketed(v.counts) and all(chain_decisions(v.counts, v.counts))


def test_bracket_rejects_zero_denominator():
    v = class_vector(2, 1, (3, 2, 1, 0))
    with pytest.raises(ZeroDivisionError):
        fraction_bracketed(v.counts)
    with pytest.raises(ZeroDivisionError):
        bounds(2, 1, [v], precision=60)


def test_bounds_refuse_a_bracketed_stage_without_the_chain(capsys, monkeypatch):
    # r = 0.9, 0.7, 0.8, 0.6: r_0 is the largest and r_3 the smallest, but
    # r_1 < r_2 breaks the chain the certificates assume
    v = class_vector(3, 1, (3024, 3360, 4800, 6000, 10000))
    assert fraction_bracketed(v.counts)
    with pytest.raises(IntegrityError, match="do not descend r0 >= r1 >= ... >= r3"):
        bounds(3, 1, [v], precision=60)
    monkeypatch.setattr(cli, "evolve_to", lambda *args, **kwargs: [v])
    assert cli.main(["entropy", "--d", "3", "--k", "1"]) == 1
    assert "do not descend" in capsys.readouterr().err


def test_bounds_widen_until_the_chain_is_decided(monkeypatch):
    # r_1 = r_2 = p/q exactly, on counts far wider than the base width: the
    # enclosure's ends leave c_1 c_3 >= c_2^2 open until it is exact
    p, q = 3**90, 5**64
    top = 2 * q**3 // p  # r_3 about half of r_2
    v = class_vector(3, 1, (p * p * 9 // 10, p * p, p * q, q * q, top))
    base = entropy.working_bits(10, 1)
    assert base < top.bit_length() <= 2 * base
    narrow = enclose(v, base)
    assert chain_decisions(narrow.lo, narrow.hi) == [True, None, True]
    decisions = []
    decide = entropy._interval_bounds

    def recorded(iv, precision):
        decided = decide(iv, precision)
        decisions.append((iv.exact, decided is not None))
        return decided

    monkeypatch.setattr(entropy, "_interval_bounds", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bounds(3, 1, [v], precision=10)
    assert decisions == [(False, False), (True, True)]
    assert summary(result) == exact_bounds(3, 1, v, 10)
    assert result.enclosure.exact


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bounds_carry_the_enclosure_they_read(trajectories, monkeypatch, d):
    # reproduce reads its last stage's ratio facts off this enclosure: the
    # one working-width step from stage 5 that the bounds were read off
    vectors = trajectories(d, 5)
    bits = entropy.working_bits(160, 6)
    stepped = []
    monkeypatch.setattr(entropy, "interval_step",
                        lambda iv, width: stepped.append(width) or interval_step(iv, width))
    result = bounds(d, 6, vectors, precision=160)
    assert stepped == [bits]
    assert result.enclosure == interval_step(enclose(vectors[5], bits), bits)


def test_bounds_require_stage_at_least_one(trajectories):
    with pytest.raises(ValueError):
        bounds(3, 0, trajectories(3, 2))


@pytest.mark.parametrize("d", [5, 6])
def test_bounds_narrow_beyond_reference_dimensions(d):
    # no reference values exist out here; the sandwich must still hold and shrink
    from hanoi_dimer.evolve import evolve_to

    vectors = evolve_to(d, 2)
    first = bounds(d, 1, vectors, precision=80)
    second = bounds(d, 2, vectors, precision=80)
    assert first.lower.as_fraction() < first.upper.as_fraction()
    assert second.lower.as_fraction() >= first.lower.as_fraction()
    assert second.upper.as_fraction() <= first.upper.as_fraction()
    width_first = first.upper.as_fraction() - first.lower.as_fraction()
    width_second = second.upper.as_fraction() - second.lower.as_fraction()
    assert width_second < width_first


# -- bounds from interval evolution -------------------------------------------------


def summary(result):
    return (result.lower, result.upper, result.certified_digits, result.lambda_digits)


INTERVAL_GRID = {2: 7, 3: 7, 4: 6, 5: 4, 6: 3}


@pytest.mark.parametrize("d", sorted(INTERVAL_GRID))
def test_interval_bounds_equal_exact_bounds(trajectories, d):
    k_max = INTERVAL_GRID[d]
    vectors = trajectories(d, k_max)
    for k in range(1, k_max + 1):
        for precision in (40, 160, 600):
            try:
                want = exact_bounds(d, k, vectors[k], precision)
            except IntegrityError:
                with pytest.raises(IntegrityError):
                    bounds(d, k, vectors, precision)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                # seeded at stage k, and two stages earlier
                from_k = bounds(d, k, vectors[: k + 1], precision)
                stepped = bounds(d, k, vectors[: max(1, k - 2)], precision)
            assert summary(from_k) == want, (k, precision)
            assert summary(stepped) == want, (k, precision)


def test_bounds_widen_until_the_bracket_is_decided(trajectories, monkeypatch):
    decisions = []
    decide = entropy._interval_bounds

    def recorded(iv, precision):
        decided = decide(iv, precision)
        decisions.append((max(iv.hi).bit_length(), decided is not None))
        return decided

    monkeypatch.setattr(entropy, "_interval_bounds", recorded)
    vectors = trajectories(3, 8)
    with pytest.warns(UserWarning, match="too small to separate"):
        result = bounds(3, 8, vectors[:6], precision=160)
    assert summary(result) == exact_bounds(3, 8, vectors[8], 160)
    # undecided at the base width, decided at twice it
    base = entropy.working_bits(160, 8)
    assert decisions == [(base, False), (2 * base, True)]


@pytest.mark.parametrize("lam", [10**60, 10**60 - 1, 10**60 + 1],
                         ids=["1e60", "1e60-1", "1e60+1"])
def test_lambda_digits_decided_next_to_a_power_of_ten(lam):
    # log10(lambda) within 1e-60 of an integer: the enclosure at the base
    # width straddles it, so the digit count waits for the exact width
    top = lam - lam % 20
    # ratios 0.8 >= 0.714.. >= 0.7 >= 0.5 (up to the last count's offset)
    v = class_vector(3, 1, (top // 5, top // 4, top * 7 // 20, top // 2, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bounds(3, 1, [v], precision=10)
    assert summary(result) == exact_bounds(3, 1, v, 10)
    assert result.lambda_digits == len(str(lam))


def test_bounds_start_from_the_latest_stage_before_k(trajectories):
    vectors = trajectories(3, 6)
    want = summary(bounds(3, 6, vectors, precision=120))
    assert summary(bounds(3, 6, vectors[:4], precision=120)) == want
    assert summary(bounds(3, 6, [vectors[2], vectors[4]], precision=120)) == want
    with pytest.raises(ValueError):
        bounds(3, 2, vectors[3:], precision=120)


# -- finite sandwich ------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3)])
def test_finite_sandwich_exact(trajectories, d, k, n):
    report = check_finite_sandwich(d, k, n, trajectories(d, n))
    assert report.ok


def test_finite_sandwich_at_equal_stages(trajectories):
    # k = n: the middle factor collapses and the corner-expansion ordering
    # carries the inequality on its own
    report = check_finite_sandwich(3, 2, 2, trajectories(3, 2))
    assert report.ok


def test_finite_sandwich_d2_with_oracle_total(trajectories):
    # cross-check the sandwich against a brute-force total, not just the
    # recursion output
    from hanoi_dimer.hanoi_graph import build
    from hanoi_dimer.matching_oracle import count_matchings

    vectors = trajectories(2, 2)
    assert vectors[2].m == count_matchings(build(2, 2))
    report = check_finite_sandwich(2, 2, 2, vectors)
    assert report.ok
