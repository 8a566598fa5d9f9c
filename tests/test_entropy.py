"""Directed logarithms and certified entropy bounds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import ceil, comb, log2, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import cli, entropy
from hanoi_dimer.commands import reproduce
from hanoi_dimer import reference_values as ref
from hanoi_dimer.entropy import bounds, certified_digit_prefix
from hanoi_dimer.errors import CapExceeded, IntegrityError
from hanoi_dimer.evolve import (
    BoundaryClassVector,
    _truncate,
    chain_decisions,
    enclose,
    initial_vector,
    interval_step,
)

from .helpers import (
    as_fraction,
    check_finite_sandwich,
    exact_bounds,
    fraction_bracketed,
    hp_ln,
)


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
    value = as_fraction(hp_ln(e_rational, p))
    assert abs(value - 1) < Fraction(1, 10 ** (p - 1))


def test_ln_ten_digits():
    lo = hp_ln(10, 60)
    assert lo.as_decimal().startswith("2.302585092994045684")
    # independent high-precision oracle brackets our directed values
    hi = hp_ln(10, 60, "ceiling")
    assert as_fraction(lo) <= as_fraction(hi)
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
    assert as_fraction(lo) <= as_fraction(hi)
    assert as_fraction(hi) - as_fraction(lo) <= Fraction(3, 10**p)
    truth = mp_ln(value)
    with mpmath.workdps(120):
        assert mpmath.mpf(str(as_fraction(lo))) <= truth
        assert truth <= mpmath.mpf(str(as_fraction(hi)))


def test_ln_additivity_of_directed_bounds():
    # ln(6) must lie between ln2+ln3 floors and ceilings
    p = 60
    six_lo = as_fraction(hp_ln(6, p))
    six_hi = as_fraction(hp_ln(6, p, "ceiling"))
    parts_lo = as_fraction(hp_ln(2, p)) + as_fraction(hp_ln(3, p))
    parts_hi = as_fraction(hp_ln(2, p, "ceiling")) + as_fraction(hp_ln(3, p, "ceiling"))
    assert parts_lo <= six_hi and six_lo <= parts_hi


def test_doubling_precision_preserves_digits():
    a = hp_ln(7, 60).as_decimal()
    b = hp_ln(7, 120).as_decimal()
    assert b.startswith(a)


def test_ln_huge_integer_truncation_path():
    m = 7**500  # 423 digits, forces the truncated-mantissa path at p=60
    lo = as_fraction(hp_ln(m, 60))
    hi = as_fraction(hp_ln(m, 60, "ceiling"))
    with mpmath.workdps(200):
        truth = 500 * mpmath.log(7)
        assert mpmath.mpf(str(lo)) <= truth <= mpmath.mpf(str(hi))
    assert hi - lo < Fraction(1, 10**55)


# -- the binary-head logarithm -------------------------------------------------


def _ln_inputs():
    rng = random.Random("binary-head-ln")

    def bits(n):
        return rng.getrandbits(n) | 1 << (n - 1)

    return {
        "1": 1,
        "61-bit": bits(61),
        "62-bit": bits(62),
        "2200-bit": bits(2200),
        "43000-bit": bits(43_000),
        "power of two": 1 << 2199,  # both series empty
        "head times 2^e": bits(61) << 2139,  # the remainder's series empty
    }


LN_INPUTS = _ln_inputs()
LN_WIDTHS = (60, 620, 2000, 6520)


def ln_ends_enclose(m, w):
    """Whether the two ends _ln_int_end gives for m at width w enclose
    10^w ln m, by mpmath at 40 more digits."""
    lo, hi = (entropy._ln_int_end(m, w, upper) for upper in (False, True))
    with mpmath.workdps(w + 40):
        truth = mpmath.log(m) * mpmath.mpf(10) ** w
    return lo <= truth <= hi


@pytest.mark.parametrize("w", LN_WIDTHS)
@pytest.mark.parametrize("name", LN_INPUTS)
def test_binary_head_ln_encloses_mpmath(name, w):
    assert ln_ends_enclose(LN_INPUTS[name], w)


@pytest.mark.parametrize("name, empty", [
    ("power of two", [True, True]),
    ("head times 2^e", [False, True]),
    ("2200-bit", [False, False]),
])
def test_ln_inputs_reach_the_empty_series(monkeypatch, name, empty):
    # the head's series, then the remainder's, with a zero argument
    nums = []
    atanh = entropy._atanh_interval

    def recording(num, den, w):
        nums.append(num)
        return atanh(num, den, w)

    monkeypatch.setattr(entropy, "_atanh_interval", recording)
    entropy._ln_reduced_int(LN_INPUTS[name], 620)
    assert [num == 0 for num in nums[:2]] == empty


def test_ln_without_series_slack_misses_mpmath(monkeypatch):
    """The slack is what lifts each upper end above the truncated series:
    at 0, some input's ends no longer enclose its logarithm."""
    monkeypatch.setattr(entropy, "_series_slack", lambda steps: 0)
    entropy._ln2_interval.cache_clear()
    entropy._ln10_interval.cache_clear()
    try:
        missed = [name for name, m in LN_INPUTS.items() if not ln_ends_enclose(m, 620)]
    finally:
        entropy._ln2_interval.cache_clear()
        entropy._ln10_interval.cache_clear()
    assert missed


def test_working_bits_convert_digits_in_integers():
    # the exact ratio of log2(10)'s double gives the float formula's value,
    # and a value past the float range, where that formula overflows
    for precision in (*range(1, 3000), 10**5, 3 * 10**6):
        assert entropy.working_bits(precision, 6) == (
            ceil((precision + 20) * log2(10)) + 4 * 6 + 64)
    assert 3 * 10**400 < entropy.working_bits(10**400, 3) < 4 * 10**400


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
            assert as_fraction(result.lower) >= as_fraction(prev.lower)
            assert as_fraction(result.upper) <= as_fraction(prev.upper)
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
    result = bounds(3, 6, trajectories(3, 6), precision=40)
    assert result.warning.startswith("precision 40 too small to separate")


def test_bounds_lower_below_upper_and_brackets_oracle(trajectories):
    result = bounds(3, 3, trajectories(3, 3), precision=80)
    lo, hi = as_fraction(result.lower), as_fraction(result.upper)
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
    monkeypatch.setattr(cli, "bounds",
                        lambda d, k, **kwargs: bounds(d, k, [v], **kwargs))
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
    result = bounds(3, 1, [v], precision=10)
    assert decisions == [(False, False), (True, True)]
    assert summary(result) == exact_bounds(3, 1, v, 10)
    assert result.walk[-1].exact


def assert_walked(result, seed, bits, precision):
    """result.walk steps the stages after seed to k at one width, and its
    last enclosure gives the bounds."""
    walk = result.walk
    assert [iv.n for iv in walk] == list(range(seed.n + 1, result.k + 1))
    for before, iv in zip((enclose(seed, bits),) + walk, walk):
        assert iv == interval_step(before, bits)
    assert entropy._interval_bounds(walk[-1], precision) == (
        result.lower, result.upper, result.lambda_digits)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bounds_carry_the_enclosure_they_read(trajectories, monkeypatch, d):
    # reproduce reads the ratio facts past its exact stages off this walk:
    # one working-width step per stage from the last exact one to stage 6
    vectors = trajectories(d, reproduce._EXACT_STAGES[d])
    bits = entropy.working_bits(160, 6)
    stepped = []
    monkeypatch.setattr(entropy, "interval_step",
                        lambda iv, width: stepped.append(width) or interval_step(iv, width))
    result = bounds(d, 6, vectors, precision=160)
    monkeypatch.undo()
    assert stepped == [bits] * (6 - vectors[-1].n)
    assert_walked(result, vectors[-1], bits, 160)


def test_a_widened_walk_is_all_at_the_final_width():
    # d=2 k=12 p=40 walks at the base width, then 2^5 and 2^6 times it
    # (test_a_walk_undecided_before_k_stops_and_widens_by_the_stages_left):
    # only the last walk is kept, exact while its counts fit the width
    bits = entropy.working_bits(40, 12) << 6
    result = bounds(2, 12, precision=40)
    assert_walked(result, initial_vector(2), bits, 40)
    assert not result.walk[-1].exact
    wide = [iv for iv in result.walk if not iv.exact]
    assert all(max(iv.hi).bit_length() in (bits, bits + 1) for iv in wide)


def test_a_seed_at_k_walks_only_its_own_enclosure(trajectories):
    vectors = trajectories(3, 3)
    result = bounds(3, 3, vectors, precision=40)
    assert result.walk == (enclose(vectors[3], entropy.working_bits(40, 3)),)
    assert entropy._interval_bounds(result.walk[0], 40) == (
        result.lower, result.upper, result.lambda_digits)


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
    assert as_fraction(first.lower) < as_fraction(first.upper)
    assert as_fraction(second.lower) >= as_fraction(first.lower)
    assert as_fraction(second.upper) <= as_fraction(first.upper)
    width_first = as_fraction(first.upper) - as_fraction(first.lower)
    width_second = as_fraction(second.upper) - as_fraction(second.lower)
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
    result = bounds(3, 8, vectors[:6], precision=160)
    assert result.warning.startswith("precision 160 too small to separate")
    assert summary(result) == exact_bounds(3, 8, vectors[8], 160)
    # undecided at the base width, decided at twice it
    base = entropy.working_bits(160, 8)
    assert decisions == [(base, False), (2 * base, True)]


def walk_price(d, steps, bits):
    # the digits of counts that bounds charges a walk at this width
    num, den = log2(10).as_integer_ratio()
    return steps * -(-(d + 1) * bits * den // num)


def test_bounds_price_each_wider_walk(trajectories, monkeypatch):
    # d=3 k=8 p=160 from stage 5 is undecided at the base width: a cap that
    # admits the base walk refuses the walk at twice it, before it runs
    vectors = trajectories(3, 8)
    base = entropy.working_bits(160, 8)
    widths = []
    monkeypatch.setattr(entropy, "interval_step",
                        lambda iv, width: widths.append(width) or interval_step(iv, width))
    cap = walk_price(3, 3, base)
    assert walk_price(3, 3, 2 * base) > cap
    with pytest.raises(CapExceeded) as exc:
        bounds(3, 8, vectors[:6], precision=160, digit_cap=cap)
    assert str(exc.value) == (
        f"stepping d=3 from stage 5 to stage 8 makes {walk_price(3, 3, 2 * base)} "
        f"digits of counts, above the cap of {cap}; raise it with --digit-cap")
    assert widths == [base] * 3
    widths.clear()
    result = bounds(3, 8, vectors[:6], precision=160,
                    digit_cap=walk_price(3, 3, 2 * base))
    assert widths == [base] * 3 + [2 * base] * 3
    assert summary(result) == exact_bounds(3, 8, vectors[8], 160)


def test_a_walk_undecided_before_k_stops_and_widens_by_the_stages_left(monkeypatch):
    # d=2 k=12 p=40: the base walk's chain is open at stage 7, so it stops
    # there and the width grows by 2^(12-7); each width it skips leaves
    # stage 12 open, so doubling one at a time would end at the same width
    base = entropy.working_bits(40, 12)
    walks = []
    enclose_at = entropy.enclose

    def recorded(vector, bits):
        walks.append([bits, vector.n])
        return enclose_at(vector, bits)

    def stepped(iv, bits):
        iv = interval_step(iv, bits)
        walks[-1][1] = iv.n
        return iv

    monkeypatch.setattr(entropy, "enclose", recorded)
    monkeypatch.setattr(entropy, "interval_step", stepped)
    result = bounds(2, 12, precision=40)
    assert walks == [[base, 7], [base << 5, 12], [base << 6, 12]]
    monkeypatch.undo()
    assert result.certified_digits == 39
    for shift in range(6):
        iv = enclose(initial_vector(2), base << shift)
        while iv.n < 12:
            iv = interval_step(iv, base << shift)
        assert entropy._interval_bounds(iv, 40) is None


@pytest.mark.parametrize("lam", [10**60, 10**60 - 1, 10**60 + 1],
                         ids=["1e60", "1e60-1", "1e60+1"])
def test_lambda_digits_decided_next_to_a_power_of_ten(lam):
    # log10(lambda) within 1e-60 of an integer: the enclosure at the base
    # width straddles it, so the digit count waits for the exact width
    top = lam - lam % 20
    # ratios 0.8 >= 0.714.. >= 0.7 >= 0.5 (up to the last count's offset)
    v = class_vector(3, 1, (top // 5, top // 4, top * 7 // 20, top // 2, lam))
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
