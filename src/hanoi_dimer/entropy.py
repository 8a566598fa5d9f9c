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

The stage-k counts are not needed exactly, only their leading bits: the
latest given stage at or below k is enclosed as an integer interval of a
fixed bit width, [lo, hi] * 2^shift (evolve.CountInterval), and stepped to
k by evolve.interval_step, which rounds lo down and hi up.  ln(lambda) then
lies in [ln lo + shift ln 2, ln hi + shift ln 2], the lower bound takes
omega at its smallest (lo_d over hi_{d+1}), the upper alpha at its largest
(hi_0 over lo_1), and the chain (evolve.chain_decisions) and the digit
count of lambda are decided on the interval ends.  When the ends cannot
decide them, the width doubles and the steps are redone; at full width the
enclosure is exact, so the loop ends with the exact answer.  The result
carries the enclosure its digits were read off.

Logarithms are computed in fixed point over plain integers: a value at
precision w is an integer numerator of value/10^w, carried as a certified
enclosing interval [lo, hi], or as the one end of it that a bound reads
(_ln_int_end: a long integer's two ends take two series, one from its
leading digits and one from them plus 1).  ln of an integer takes its leading w+10
decimal digits as m * 10^e, shifts m/10^e into [0.8, 1.6) by powers of two
and sums the odd atanh series 2*atanh((x-1)/(x+1)) with an explicit tail
bound; ln 2 and ln 10 come from the same series at 1/3 and 1/9
(ln 10 = 3 ln 2 + ln(10/8)).  Everything is computed at precision + 20
guard digits and truncated outward at the end, so series slack of a few
thousand ulps never reaches a reported digit.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import ceil, log2
from typing import NamedTuple

from .errors import DEFAULT_PRECISION, IntegrityError
from .evolve import (
    BoundaryClassVector,
    CountInterval,
    chain_decisions,
    enclose,
    interval_step,
)
from .intutil import ceil_div, digit_count

GUARD_DIGITS = 20


class HighPrecisionReal(NamedTuple):
    """A directed decimal bound: value = scaled / 10^precision.

    rounding records which way the true quantity lies: "floor" means the
    true value is >= this one, "ceiling" means it is <=.
    """

    scaled: int
    precision: int
    rounding: str

    def as_decimal(self) -> str:
        sign = "-" if self.scaled < 0 else ""
        digits = str(abs(self.scaled)).rjust(self.precision + 1, "0")
        return f"{sign}{digits[:-self.precision]}.{digits[-self.precision:]}"

    def as_fraction(self) -> Fraction:
        return Fraction(self.scaled, 10**self.precision)


class BoundsResult(NamedTuple):
    d: int
    k: int
    lower: HighPrecisionReal
    upper: HighPrecisionReal
    certified_digits: int
    lambda_digits: int
    enclosure: CountInterval
    warning: str | None = None


class SandwichReport(NamedTuple):
    """Exact rational verification of the finite-stage matching sandwich."""

    d: int
    k: int
    n: int
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


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
    # floor drift grows at most linearly per step, tail is geometric
    slack = steps * (steps + 3) // 2 + 4 * steps + 8
    return (total, total + slack)


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
    """Enclose 10^w * ln(m) for an integer of at most ~w+12 digits."""
    if m == 1:
        return (0, 0)
    e = digit_count(m) - 1
    p10 = 10**e
    # shift the mantissa m/10^e into [0.8, 1.6) with k halvings
    if 5 * m < 8 * p10:
        k = 0
    elif 5 * m < 16 * p10:
        k = 1
    elif 5 * m < 32 * p10:
        k = 2
    else:
        k = 3
    c = (1 << k) * p10
    num, den = m - c, m + c
    if num >= 0:
        alo, ahi = _atanh_interval(num, den, w)
        xlo, xhi = 2 * alo, 2 * ahi
    else:
        alo, ahi = _atanh_interval(-num, den, w)
        xlo, xhi = -2 * ahi, -2 * alo
    l2lo, l2hi = _ln2_interval(w)
    l10lo, l10hi = _ln10_interval(w)
    return (xlo + k * l2lo + e * l10lo, xhi + k * l2hi + e * l10hi)


def _ln_int_end(m: int, w: int, upper: bool) -> int:
    """The lower (or, given upper, the upper) end of an enclosure of
    10^w * ln(m) for any positive integer."""
    if m <= 0:
        raise ValueError("log of a nonpositive integer")
    digits = digit_count(m)
    keep = w + 10
    if digits <= keep:
        return _ln_reduced_int(m, w)[upper]
    shift = digits - keep
    # m lies in [head, head + 1) * 10^shift
    head = m // 10**shift + upper
    return _ln_reduced_int(head, w)[upper] + shift * _ln10_interval(w)[upper]


def _ln_ratio_end(num: int, den: int, w: int, upper: bool) -> int:
    """One end of an enclosure of 10^w * ln(num/den), as _ln_int_end, for
    positive integers, reduced or not."""
    return _ln_int_end(num, w, upper) - _ln_int_end(den, w, not upper)


def hp_ln(x: int | Fraction, precision: int = DEFAULT_PRECISION,
          rounding: str = "floor") -> HighPrecisionReal:
    """Natural log of a positive integer or rational, correct to ``precision``
    digits with the requested rounding direction ("floor" or "ceiling")."""
    if rounding not in ("floor", "ceiling"):
        raise ValueError(f"unknown rounding direction {rounding!r}")
    value = Fraction(x)
    if value <= 0:
        raise ValueError(f"ln domain error: {x} <= 0")
    w = precision + GUARD_DIGITS
    upper = rounding == "ceiling"
    end = _ln_ratio_end(value.numerator, value.denominator, w, upper)
    grain = 10**GUARD_DIGITS
    scaled = ceil_div(end, grain) if upper else end // grain
    return HighPrecisionReal(scaled=scaled, precision=precision, rounding=rounding)


# -- entropy bounds ----------------------------------------------------------------


def _stage_vector(vectors: list[BoundaryClassVector], k: int) -> BoundaryClassVector:
    for v in vectors:
        if v.n == k:
            return v
    raise ValueError(f"no stage-{k} vector available")


def _edge_factor(t: int, s: int) -> tuple[int, int]:
    # 1 + 2 (t/s) + 2 (t/s)^2 as an unreduced numerator/denominator pair
    return s * s + 2 * t * s + 2 * t * t, s * s


def certified_digit_prefix(lower: str, upper: str) -> tuple[str, int]:
    """Common decimal prefix of two bound renderings and its fractional length."""
    if ("-" in lower) != ("-" in upper):
        return ("", 0)
    int_lo, frac_lo = lower.split(".")
    int_hi, frac_hi = upper.split(".")
    if int_lo != int_hi:
        return ("", 0)
    common = ""
    for a, b in zip(frac_lo, frac_hi):
        if a != b:
            break
        common += a
    prefix = f"{int_lo}.{common}" if common else int_lo
    return (prefix, len(common))


def working_bits(precision: int, k: int) -> int:
    """Enclosure width for bounds at stage k: the working digits in bits,
    plus 4 guard bits for each of at most k interval steps and 64 more."""
    return ceil((precision + GUARD_DIGITS) * log2(10)) + 4 * k + 64


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
    lower = HighPrecisionReal(lower_w // grain, precision, "floor")
    upper = HighPrecisionReal(ceil_div(upper_w, grain), precision, "ceiling")
    return lower, upper, floor_log10 + 1


def bounds(d: int, k: int, vectors: list[BoundaryClassVector],
           precision: int = DEFAULT_PRECISION) -> BoundsResult:
    """Certified lower/upper bounds on the entropy per site from stage k.

    Requires k >= 1 and the stage-k ratio chain r_0 >= ... >= r_d, which
    underwrites the sandwich; the d=2 system only satisfies it from stage 2
    on.  Starts from the stage-k vector if given, else from the latest
    earlier one, and steps its enclosure to k at working_bits(precision, k),
    doubled until the ends decide.
    """
    if k < 1:
        raise ValueError("bound stage k must be >= 1")
    seeds = [v for v in vectors if v.n <= k]
    if not seeds:
        raise ValueError(f"no vector at or before stage {k} available")
    seed = max(seeds, key=lambda v: v.n)
    if seed.d != d:
        raise ValueError(f"vectors are for d={seed.d}, not d={d}")

    bits = working_bits(precision, k)
    while True:
        iv = enclose(seed, bits)
        while iv.n < k:
            iv = interval_step(iv, bits)
        decided = _interval_bounds(iv, precision)
        if decided is not None:
            break
        bits *= 2
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
        warnings.warn(warning)
    return BoundsResult(
        d=d, k=k, lower=lower, upper=upper, certified_digits=digits,
        lambda_digits=lambda_digits, enclosure=iv, warning=warning,
    )


def check_finite_sandwich(d: int, k: int, n: int,
                          vectors: list[BoundaryClassVector]) -> SandwichReport:
    """Exact rational check of the finite-stage sandwich.

    lambda(k)^{(d+1)^(n-k)} * q(omega_k)^{(d+1)((d+1)^(n-k)-1)/2} * (1+omega_n)^{d+1}
    < M(n) < the same with alpha, where q(x) = 1 + 2x + 2x^2.  No rounding
    anywhere; a violation raises IntegrityError.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    vk = _stage_vector(vectors, k)
    vn = _stage_vector(vectors, n)
    lam = vk.counts[d + 1]
    omega_k = Fraction(vk.counts[d], vk.counts[d + 1])
    alpha_k = Fraction(vk.counts[0], vk.counts[1])
    omega_n = Fraction(vn.counts[d], vn.counts[d + 1])
    alpha_n = Fraction(vn.counts[0], vn.counts[1])

    copies = (d + 1) ** (n - k)
    middle_exp = (d + 1) * (copies - 1) // 2

    def side(ratio_k: Fraction, ratio_n: Fraction) -> Fraction:
        q = 1 + 2 * ratio_k + 2 * ratio_k**2
        return Fraction(lam) ** copies * q**middle_exp * (1 + ratio_n) ** (d + 1)

    lower_ok = side(omega_k, omega_n) < vn.m
    upper_ok = vn.m < side(alpha_k, alpha_n)
    report = SandwichReport(d=d, k=k, n=n, lower_ok=lower_ok, upper_ok=upper_ok)
    if not report.ok:
        raise IntegrityError(
            f"finite sandwich violated for d={d}, k={k}, n={n}: "
            f"lower_ok={lower_ok}, upper_ok={upper_ok}"
        )
    return report
