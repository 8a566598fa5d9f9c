"""Certified entropy-per-site bounds with directed rounding.

The bound at stage k anchors on lambda = c_{d+1}(k), the all-corners-dimer
count, and the outer ratios omega = c_d(k)/c_{d+1}(k) and
alpha = c_0(k)/c_1(k):

    lower = ln(lambda) / (d+1)^(k+1) + ln(1 + 2 omega + 2 omega^2) / (2 (d+1)^k)
    upper = same with alpha in place of omega

with the lower bound rounded toward -inf and the upper toward +inf, so the
reported interval is mathematically guaranteed at the working precision.
It applies where r_0 >= r_j >= r_d at stage k (the bracket), and the
certificates that carry it to later stages assume the full chain
r_0 >= r_1 >= ... >= r_d, which implies the bracket; bounds refuses a
stage without the chain.

The stage-k counts are not needed exactly, only their leading bits: one
enclosure, an integer interval of a fixed bit width, [lo, hi] * 2^shift
(evolve.CountInterval), is walked from stage 0 (or from the latest given
stage at or below k) to k by evolve.interval_step, which rounds lo down and
hi up.  An exact stage is the enclosure of zero width, which stays exact
while its counts fit the width.  Before any work, stage 0 included, the
walk is priced against a digit cap, and so is each wider walk before it
runs: each of its steps makes counts of at most (d+1) times the width in
bits.  ln(lambda) then lies in [ln lo + shift ln 2, ln hi + shift ln 2],
the lower bound takes omega at its smallest (lo_d over hi_{d+1}), the
upper alpha at its largest (hi_0 over lo_1), and the chain
(evolve.chain_decisions) and the digit count of lambda are decided on the
interval ends.  When the ends cannot
decide them, the width doubles and the steps are redone; at full width the
enclosure is exact, so the loop ends with the exact answer.  The ratio gaps
contract at least quadratically, eps(n+1) < 3 eps(n)^2, so the width that
decides a stage at least doubles at each later one: a walk whose chain is
undecided at a stage n < k stops there, and the width grows by 2^(k-n).
The result carries the walk its digits were read off: the enclosures of
the stages after the seed, all at the final width, the last at stage k.

Logarithms are computed in fixed point over plain integers: a value at
precision w is an integer numerator of value/10^w, carried as a certified
enclosing interval [lo, hi], or as the one end of it that a bound reads
(_ln_int_end: a long integer's two ends take two series, one from its
leading bits, at least w+10 decimal digits' worth, and one from them plus
1, each plus ln 2 times the count of bits dropped).  ln of such an integer
m splits off a binary head, the leading 61 bits h = m >> e, with
2^k <= h < 2^(k+1) (Brent & Zimmermann, Modern Computer Arithmetic, 2010,
sections 4.2-4.4):

    ln m = 2 atanh((h - 2^k)/(h + 2^k)) + 2 atanh((m - h 2^e)/(m + h 2^e))
           + (k + e) ln 2.

Each odd series atanh(y) = y + y^3/3 + ... runs with an explicit tail
bound (_series_slack).  The head's runs on 61-bit operands; the
remainder's argument is below 2^-60, so it needs only about w/36
full-width terms.  ln 2 and ln 10 come from the same series at 1/3 and
1/9 (ln 10 = 3 ln 2 + ln(10/8)).  Everything is computed at precision + 20
guard digits and truncated outward at the end, so series slack of a few
thousand ulps never reaches a reported digit.
"""

from __future__ import annotations

from functools import cache
from math import log2
from typing import NamedTuple

from .errors import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_PRECISION,
    CapExceeded,
    IntegrityError,
)
from .evolve import (
    BoundaryClassVector,
    CountInterval,
    certified_digit_prefix,
    chain_decisions,
    enclose,
    initial_vector,
    interval_step,
)
from .intutil import ceil_div, digit_count
from .scan import check_scan_work

GUARD_DIGITS = 20
# log2 10 as the exact ratio of its double, so that digits convert to bits
# (and bits to digits, by its inverse) in integers at any size
_LOG2_10_NUM, _LOG2_10_DEN = log2(10).as_integer_ratio()


class HighPrecisionReal(NamedTuple):
    """A decimal bound, value = scaled / 10^precision: a lower bound is
    rounded down, an upper one up."""

    scaled: int
    precision: int

    def as_decimal(self) -> str:
        sign = "-" if self.scaled < 0 else ""
        digits = str(abs(self.scaled)).rjust(self.precision + 1, "0")
        return f"{sign}{digits[:-self.precision]}.{digits[-self.precision:]}"


class BoundsResult(NamedTuple):
    d: int
    k: int
    lower: HighPrecisionReal
    upper: HighPrecisionReal
    certified_digits: int
    lambda_digits: int
    # the enclosures of stages seed+1..k, each an interval_step of the one
    # before it at one width, the last the one the bounds were read off; a
    # seed at stage k walks only its own enclosure
    walk: tuple[CountInterval, ...]
    warning: str | None = None


# -- fixed-point interval log ---------------------------------------------------

Interval = tuple[int, int]


def _atanh_interval(num: int, den: int, w: int) -> Interval:
    """Enclose 10^w * atanh(num/den) for 0 <= num/den <= 1/2."""
    if num == 0:
        return (0, 0)
    if not 0 < 2 * num <= den:
        raise ValueError("series argument out of range")
    scale = 10**w
    n2 = num * num
    d2 = den * den
    ypow = scale * num // den
    total = 0
    steps = 0
    j = 1
    while ypow:
        total += ypow // j
        ypow = ypow * n2 // d2
        j += 2
        steps += 1
    return (total, total + _series_slack(steps))


def _series_slack(steps: int) -> int:
    """How far the truncated atanh series, after steps terms, may fall below
    10^w * atanh(num/den), in units of 10^-w.

    With y = num/den <= 1/2, the power p_{j+1} = floor(p_j y^2) lies below
    10^w y^(2j+3) by under 1 + (the drift of p_j) / 4, so every drift is
    under 4/3; each term's floor loses under 1 more, and the tail past the
    first zero power is under (4/3) / (1 - 1/4) < 2.  The slack overstates
    that sum of 7/3 steps + 2.
    """
    return steps * (steps + 3) // 2 + 4 * steps + 8


@cache
def _ln2_interval(w: int) -> Interval:
    lo, hi = _atanh_interval(1, 3, w)
    return (2 * lo, 2 * hi)


@cache
def _ln10_interval(w: int) -> Interval:
    l2lo, l2hi = _ln2_interval(w)
    # ln(10/8) = 2 atanh(1/9)
    qlo, qhi = _atanh_interval(1, 9, w)
    return (3 * l2lo + 2 * qlo, 3 * l2hi + 2 * qhi)


def _ln_reduced_int(m: int, w: int) -> Interval:
    """Enclose 10^w * ln(m) for a positive integer of at most ~w+12 digits:
    two atanh series, on its 61-bit head h = m >> e and on m / (h 2^e), plus
    (k + e) ln 2 for 2^k <= h < 2^(k+1)."""
    e = max(m.bit_length() - 61, 0)
    h = m >> e
    k = h.bit_length() - 1
    r = h << e
    hlo, hhi = _atanh_interval(h - (1 << k), h + (1 << k), w)
    rlo, rhi = _atanh_interval(m - r, m + r, w)
    l2lo, l2hi = _ln2_interval(w)
    return (2 * (hlo + rlo) + (k + e) * l2lo, 2 * (hhi + rhi) + (k + e) * l2hi)


def _ln_int_end(m: int, w: int, upper: bool) -> int:
    """The lower (or, given upper, the upper) end of an enclosure of
    10^w * ln(m) for any positive integer."""
    if m <= 0:
        raise ValueError("log of a nonpositive integer")
    # keep at least w+10 decimal digits' worth of leading bits
    shift = m.bit_length() - ceil_div((w + 10) * _LOG2_10_NUM, _LOG2_10_DEN)
    if shift <= 0:
        return _ln_reduced_int(m, w)[upper]
    # m lies in [head, head + 1) * 2^shift
    head = (m >> shift) + upper
    return _ln_reduced_int(head, w)[upper] + shift * _ln2_interval(w)[upper]


def _ln_ratio_end(num: int, den: int, w: int, upper: bool) -> int:
    """One end of an enclosure of 10^w * ln(num/den), as _ln_int_end, for
    positive integers, reduced or not."""
    return _ln_int_end(num, w, upper) - _ln_int_end(den, w, not upper)


# -- entropy bounds ----------------------------------------------------------------


def _edge_factor(t: int, s: int) -> tuple[int, int]:
    # 1 + 2 (t/s) + 2 (t/s)^2 as an unreduced numerator/denominator pair
    return s * s + 2 * t * s + 2 * t * t, s * s


def working_bits(precision: int, k: int) -> int:
    """Enclosure width for bounds at stage k: the working digits in bits,
    plus 4 guard bits for each of at most k interval steps and 64 more."""
    return (ceil_div((precision + GUARD_DIGITS) * _LOG2_10_NUM, _LOG2_10_DEN)
            + 4 * k + 64)


def _interval_bounds(iv: CountInterval, precision: int
                     ) -> tuple[HighPrecisionReal, HighPrecisionReal, int] | None:
    """(lower, upper, lambda_digits) from a stage-k enclosure, or None when
    its ends cannot decide the chain or the digit count of lambda."""
    d, k, lo, hi = iv.d, iv.n, iv.lo, iv.hi
    # hi bounds a count from above, so hi == 0 means the count is 0
    if 0 in hi[1:]:
        raise ZeroDivisionError(f"ratios undefined at stage {k} (zero denominator)")
    chain = chain_decisions(lo, hi)
    if False in chain:
        raise IntegrityError(
            f"stage-{k} ratios of d={d} do not descend r0 >= r1 >= ... >= r{d}; "
            "the sandwich argument and the certificates that carry the bound "
            "to later stages assume it"
        )
    if None in chain:
        return None
    # decided true, the chain brackets r_j by r_0 and r_d and makes every lo positive
    w = precision + GUARD_DIGITS
    l2lo, l2hi = _ln2_interval(w)
    lam_lo = _ln_int_end(lo[d + 1], w, False) + iv.shift * l2lo
    lam_hi = _ln_int_end(hi[d + 1], w, True) + iv.shift * l2hi
    # the shifts cancel in omega and alpha
    qw_lo = _ln_ratio_end(*_edge_factor(lo[d], hi[d + 1]), w, False)
    qa_hi = _ln_ratio_end(*_edge_factor(hi[0], lo[1]), w, True)

    # lambda >= 1, so its log10 lies in [max(lam_lo, 0) / ln 10, lam_hi / ln 10]
    l10lo, l10hi = _ln10_interval(w)
    floor_log10 = max(lam_lo, 0) // l10hi
    if floor_log10 != lam_hi // l10lo:
        if not iv.exact:
            return None
        floor_log10 = digit_count(lo[d + 1]) - 1

    div_lam = (d + 1) ** (k + 1)
    div_q = 2 * (d + 1) ** k
    lower_w = lam_lo // div_lam + qw_lo // div_q
    upper_w = ceil_div(lam_hi, div_lam) + ceil_div(qa_hi, div_q)

    grain = 10**GUARD_DIGITS
    lower = HighPrecisionReal(lower_w // grain, precision)
    upper = HighPrecisionReal(ceil_div(upper_w, grain), precision)
    return lower, upper, floor_log10 + 1


def bounds(d: int, k: int, vectors: list[BoundaryClassVector] | None = None,
           precision: int = DEFAULT_PRECISION,
           digit_cap: int = DEFAULT_DIGIT_CAP) -> BoundsResult:
    """Certified lower/upper bounds on the entropy per site from stage k.

    Requires k >= 1 and the stage-k ratio chain r_0 >= ... >= r_d, which
    underwrites the sandwich; the d=2 system only satisfies it from stage 2
    on.  Walks one enclosure to k at working_bits(precision, k), doubled
    until the ends decide: from the stage-k vector if given, else from the
    latest earlier one, and from stage 0 when no vectors are given.  A walk
    whose chain is undecided at a stage n < k stops there, and the width
    grows by 2^(k-n).  The result's walk is the deciding walk's enclosures
    of stages seed+1..k.  Before any work, stage 0 included, refuses with
    CapExceeded where the scan-work cap does; before each walk, at the base
    width and at every wider one, where its steps, each making counts of at
    most (d+1) * bits bits, make more than digit_cap digits in all.
    """
    if k < 1:
        raise ValueError("bound stage k must be >= 1")
    check_scan_work(d)
    seed = None
    if vectors is not None:
        seeds = [v for v in vectors if v.n <= k]
        if not seeds:
            raise ValueError(f"no vector at or before stage {k} available")
        seed = max(seeds, key=lambda v: v.n)
        if seed.d != d:
            raise ValueError(f"vectors are for d={seed.d}, not d={d}")

    bits = working_bits(precision, k)
    start = 0 if seed is None else seed.n
    while True:
        # priced at every width, so widening cannot walk past the cap
        walked = (k - start) * ceil_div((d + 1) * bits * _LOG2_10_DEN, _LOG2_10_NUM)
        if walked > digit_cap:
            raise CapExceeded(
                f"stepping d={d} from stage {start} to stage {k} makes {walked} "
                f"digits of counts, above the cap of {digit_cap}; raise it with "
                "--digit-cap")
        if seed is None:
            seed = initial_vector(d)
        iv = enclose(seed, bits)
        walk = []
        while iv.n < k:
            iv = interval_step(iv, bits)
            walk.append(iv)
            if (iv.n < k and not iv.exact
                    and None in chain_decisions(iv.lo, iv.hi)):
                break
        decided = _interval_bounds(iv, precision) if iv.n == k else None
        if decided is not None:
            break
        # the ratio gaps contract at least quadratically (eps(n+1) <
        # 3 eps(n)^2), so each stage past an undecided one takes at least
        # twice the width
        bits <<= max(k - iv.n, 1)
    lower, upper, lambda_digits = decided
    if lower.scaled > upper.scaled:
        raise IntegrityError("lower bound exceeded upper bound")

    _, digits = certified_digit_prefix(lower.as_decimal(), upper.as_decimal())
    warning = None
    if digits >= precision - 3:
        warning = (
            f"precision {precision} too small to separate the bounds; "
            f"achieved {digits} certified digits"
        )
    return BoundsResult(
        d=d, k=k, lower=lower, upper=upper, certified_digits=digits,
        lambda_digits=lambda_digits, walk=tuple(walk) or (iv,), warning=warning,
    )
