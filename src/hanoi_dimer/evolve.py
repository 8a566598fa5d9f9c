"""Evolution of boundary-class vectors and their ratio sequences.

Stage vectors are exact big integers (BoundaryClassVector); where only the
leading bits of later counts matter (the entropy bounds, and the ratio facts
of reproduce's last stage), a CountInterval carries them past a seed stage as
outward-rounded integer intervals of a fixed bit width.  Stages advance by
the integer transfer scans of recursion_gen (step, interval_step), which need
nothing but d: one scan whose values are polynomials in t, held as their
exact values at d+2 integer points, gives every class count (coefficient
t^k sums the C(d+1, k) choices of k dimer-forced corners), and one plain
integer scan gives the total M.  apply_system evaluates a given recursion
system term by term instead, which is how verify checks a loaded system
against the oracle.  Stage-0 vectors are the matching counts of K_{d+1}
with the corner constraints applied: c_k(0) is the number of perfect
matchings on the k dimer-forced corners, (k-1)!! for even k and 0 for odd k.

Class counts are strictly monotone in k from stage 1 on: increasing for
d >= 3, decreasing for d = 2 (the three-corner system is top-heavy, which
the brute-force oracle confirms).  The consecutive ratios r_j = c_j/c_{j+1}
share a common limit; r_0 decreases and r_d increases toward it, and their
gap contracts quadratically.  These ratios are never normalized: a RatioTrace
keeps each stage's counts as the ends of an enclosure (equal ends where the
stage is exact), check_contraction decides every fact on the ends of integer
cross-products of them (decide_at_least; the chain by chain_decisions, which
entropy.bounds uses too), and each exact value is rendered
from its unreduced (num, den) pair (render_quotient), so no gcd of the long
counts is taken.  An exact Fraction is built only on request.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import DEFAULT_DIGIT_CAP, CapExceeded, IntegrityError
from .intutil import digit_count
from .multipoly import evaluate_int
from .recursion_gen import (
    INT_RING,
    POINT_RING,
    RecursionSystem,
    check_scan_work,
    corner_splits,
    interpolate_points,
    t_point,
    transfer_scan,
)


class _BoundaryClassVector(NamedTuple):
    d: int
    n: int
    counts: tuple[int, ...]
    m: int


class BoundaryClassVector(_BoundaryClassVector):
    """Exact matching counts of TH_d(n), classified by dimer-covered corners.

    counts[k] = matchings with a fixed k-subset of corners dimer-covered and
    the rest monomer-covered; m = unconstrained total.  Checked on every
    construction, _make and _replace included.
    """

    __slots__ = ()

    def __new__(cls, d: int, n: int, counts: tuple[int, ...], m: int):
        if len(counts) != d + 2:
            raise IntegrityError(
                f"class vector for d={d} needs {d + 2} counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise IntegrityError("negative class count")
        total = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
        if total != m:
            raise IntegrityError(
                f"total {m} differs from binomial-weighted class sum {total}"
            )
        if n >= 1:
            pairs = zip(counts, counts[1:])
            if d == 2:
                ok = all(a > b for a, b in pairs)
            else:
                ok = all(a < b for a, b in pairs)
            if not ok:
                raise IntegrityError(
                    f"class counts at stage {n} are not strictly monotone"
                )
        return super().__new__(cls, d, n, counts, m)

    @classmethod
    def _make(cls, iterable) -> BoundaryClassVector:
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def _double_factorial_matchings(k: int) -> int:
    # perfect matchings of K_k
    if k % 2:
        return 0
    out = 1
    for i in range(k - 1, 0, -2):
        out *= i
    return out


def initial_vector(d: int) -> BoundaryClassVector:
    counts = tuple(_double_factorial_matchings(k) for k in range(d + 2))
    m = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
    return BoundaryClassVector(d=d, n=0, counts=counts, m=m)


def _mixed_counts(d: int, counts: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Integer mixed counts N(a, b) = sum_j C(d+1-a-b, j) c_{b+j} of a stage."""
    return {
        (a, b): sum(comb(d + 1 - a - b, j) * counts[b + j]
                    for j in range(d + 2 - a - b))
        for a, b in corner_splits(d)
    }


def _class_counts(d: int, mixed: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """c_0..c_{d+1} of the next stage from one t-scan of the mixed counts.

    The scan gives the t-polynomial's values at d+2 points, each copy's
    factor N(deg+1, 0) + t N(deg, 1) taken at every point; its coefficient
    of t^k holds C(d+1, k) c_k, one term per k-subset of dimer-forced
    corners, and a remainder means the corner symmetry failed.
    """
    factors = [tuple(mixed[deg + 1, 0] + t_point(j) * mixed[deg, 1]
                     for j in range(d + 2)) for deg in range(d + 1)]
    points = transfer_scan(d, factors, POINT_RING)
    counts = []
    for k, coeff in enumerate(interpolate_points(points)):
        count, rem = divmod(coeff, comb(d + 1, k))
        if rem:
            raise IntegrityError(
                f"t^{k} coefficient {coeff} is not divisible by the "
                f"C({d + 1},{k}) = {comb(d + 1, k)} corner choices")
        counts.append(count)
    return tuple(counts)


def step(v: BoundaryClassVector) -> BoundaryClassVector:
    """Advance one stage by the transfer scans for v.d.

    The class counts come from one t-scan, and the total M from its own
    integer scan (each copy's factor N(deg, 0)), so the binomial-sum
    invariant re-checked on the result stays an independent check of the
    counts.
    """
    mixed = _mixed_counts(v.d, v.counts)
    counts = _class_counts(v.d, mixed)
    m = transfer_scan(v.d, [mixed[deg, 0] for deg in range(v.d + 1)], INT_RING)
    return BoundaryClassVector(d=v.d, n=v.n + 1, counts=counts, m=m)


class CountInterval(NamedTuple):
    """Outward-rounded enclosure of a stage's class counts.

    c_j(n) lies in [lo[j] * 2^shift, hi[j] * 2^shift]; all counts share the
    one shift.  With shift 0 and lo == hi the counts are exact.
    """

    d: int
    n: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    shift: int

    @property
    def exact(self) -> bool:
        return self.shift == 0 and self.lo == self.hi


def _truncate(d: int, n: int, lo: tuple[int, ...], hi: tuple[int, ...],
              shift: int, bits: int) -> CountInterval:
    # floor lo and ceil hi by one common shift that leaves the top count bits
    # wide (bits + 1 where its ceiling carries)
    drop = max(0, max(hi).bit_length() - bits)
    return CountInterval(d=d, n=n, lo=tuple(c >> drop for c in lo),
                         hi=tuple(-(-c >> drop) for c in hi), shift=shift + drop)


def enclose(v: BoundaryClassVector, bits: int) -> CountInterval:
    """Truncate an exact vector outward so that its top count has bits bits."""
    return _truncate(v.d, v.n, v.counts, v.counts, 0, bits)


def interval_step(iv: CountInterval, bits: int) -> CountInterval:
    """Advance an enclosure one stage and re-truncate it to bits bits.

    The class polynomials are homogeneous of degree d+1, so the shift
    scales by d+1.  Each class count the scan returns is the exact value of
    a class polynomial, whose coefficients are nonnegative, whatever the
    signs of the point values on the way; so it is monotone in the counts,
    and the images of lo and hi enclose the next stage.
    """
    lo = _class_counts(iv.d, _mixed_counts(iv.d, iv.lo))
    hi = _class_counts(iv.d, _mixed_counts(iv.d, iv.hi))
    return _truncate(iv.d, iv.n + 1, lo, hi, iv.shift * (iv.d + 1), bits)


def apply_system(sys: RecursionSystem, v: BoundaryClassVector) -> BoundaryClassVector:
    """Advance one stage by evaluating the given system's polynomials."""
    if v.d != sys.d:
        raise ValueError(f"vector dimension {v.d} does not match system {sys.d}")
    point = {f"c{k}": c for k, c in enumerate(v.counts)}
    counts = tuple(evaluate_int(p, point) for p in sys.class_polys)
    m = evaluate_int(sys.m_poly, point)
    return BoundaryClassVector(d=v.d, n=v.n + 1, counts=counts, m=m)


def evolve_to(d: int, n_max: int,
              digit_cap: int = DEFAULT_DIGIT_CAP,
              stop_bits: int | None = None) -> list[BoundaryClassVector]:
    """Stages 0..n_max inclusive by step, guarded against runaway work.

    The scan-work cap is checked first, for any n_max; the digit cap
    predicts the digits of stage n_max at every stage that is evolved.
    Given stop_bits, evolution ends early at the first stage whose largest
    count is wider than stop_bits bits.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    check_scan_work(d)
    v = initial_vector(d)
    out = [v]
    while v.n < n_max:
        top = max(v.counts)
        steps = n_max - v.n
        if steps >= digit_cap.bit_length() + 64:
            # (d+1)^steps >= 2^steps is far past the cap; build no such power
            raise CapExceeded(
                f"evolving d={d} to stage {n_max} predicts over 2^{steps} digit "
                f"counts, above the cap of {digit_cap}; raise it with --digit-cap"
            )
        predicted = digit_count(top) * (d + 1) ** steps
        if predicted > digit_cap:
            raise CapExceeded(
                f"evolving d={d} to stage {n_max} predicts ~{predicted} digit "
                f"counts, above the cap of {digit_cap}; raise it with --digit-cap"
            )
        if stop_bits is not None and top.bit_length() > stop_bits:
            break
        v = step(v)
        out.append(v)
    return out


class _RatioTrace(NamedTuple):
    d: int
    stages: tuple[int, ...]
    lo: tuple[tuple[int, ...], ...]
    hi: tuple[tuple[int, ...], ...]


class RatioTrace(_RatioTrace):
    """Class counts per stage, from stage 1 on, read as their ratios.

    lo[i] and hi[i] are the ends of c_0..c_{d+1} at stage stages[i], both up
    to one power-of-two scale per stage, which cancels in every ratio; an
    exact stage is the degenerate enclosure, lo[i] == hi[i].  r_j =
    c_j / c_{j+1}.  The denominators c_1..c_{d+1} must be positive (a zero
    one raises ZeroDivisionError), so every comparison of ratios is one of
    integer cross-products.  The values (ratio_pair, eps_pair, and the
    Fractions of ratio, eps, eps_ratio and ratios, built only when called)
    are read off exact stages only; every value is rendered from an
    unreduced (num, den) pair.  Checked on every construction, _make and
    _replace included.
    """

    __slots__ = ()

    def __new__(cls, d: int, stages: tuple[int, ...],
                lo: tuple[tuple[int, ...], ...], hi: tuple[tuple[int, ...], ...]):
        for n, low, high in zip(stages, lo, hi):
            for j, (den_lo, den_hi) in enumerate(zip(low[1:], high[1:])):
                # the high end bounds the count from above: 0 means it is 0
                if den_hi == 0:
                    raise ZeroDivisionError(
                        f"ratio r{j} undefined at stage {n} (zero denominator; "
                        "class ratios start at stage 1)"
                    )
                if den_lo < 0:
                    raise IntegrityError(f"negative class count c{j + 1} at stage {n}")
            if any(a > b for a, b in zip(low, high)):
                raise IntegrityError(f"count enclosure ends out of order at stage {n}")
        return super().__new__(cls, d, stages, lo, hi)

    @classmethod
    def _make(cls, iterable) -> RatioTrace:
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def _row(self, n: int) -> tuple[int, ...]:
        """The counts of stage n, which must be exact."""
        i = self.stages.index(n)
        if self.lo[i] != self.hi[i]:
            raise ValueError(f"stage {n} is an enclosure: its ratios are known "
                             "only between its ends")
        return self.lo[i]

    def ratio_pair(self, n: int, j: int) -> tuple[int, int]:
        """r_j(n) as the pair (c_j, c_{j+1})."""
        row = self._row(n)
        return row[j], row[j + 1]

    def eps_pair(self, n: int) -> tuple[int, int]:
        """eps(n) = r_0(n) - r_d(n) as the pair (E, D), E = c_0 c_{d+1} -
        c_d c_1 and D = c_1 c_{d+1} > 0."""
        c, d = self._row(n), self.d
        return c[0] * c[d + 1] - c[d] * c[1], c[1] * c[d + 1]

    def eps_ratio_pair(self, n: int) -> tuple[int, int]:
        """eps(n+1) / eps(n)^2 as the pair (E_1 D_0^2, D_1 E_0^2)."""
        e0, d0 = self.eps_pair(n)
        e1, d1 = self.eps_pair(n + 1)
        return e1 * d0 * d0, d1 * e0 * e0

    def ratio(self, n: int, j: int) -> Fraction:
        return Fraction(*self.ratio_pair(n, j))

    def eps(self, n: int) -> Fraction:
        """Outer ratio gap r_0(n) - r_d(n); contracts quadratically."""
        return Fraction(*self.eps_pair(n))

    def eps_ratio(self, n: int) -> Fraction:
        """eps(n+1) / eps(n)^2, exact."""
        return Fraction(*self.eps_ratio_pair(n))

    @property
    def ratios(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows r_0..r_d per stage, as exact Fractions."""
        return tuple(tuple(Fraction(c[j], c[j + 1]) for j in range(self.d + 1))
                     for c in map(self._row, self.stages))


def ratios(stages: list[BoundaryClassVector | CountInterval]) -> RatioTrace:
    """Build the ratio trace from evolved stages (stage 0 is skipped).

    An exact vector gives both ends its counts; an enclosure gives its own.
    """
    staged = [v for v in stages if v.n >= 1]
    if not staged:
        raise ValueError("need at least one vector at stage >= 1 (stage-0 "
                         "ratios are undefined: c1(0) = 0)")
    ends = [(v.lo, v.hi) if isinstance(v, CountInterval) else (v.counts, v.counts)
            for v in staged]
    return RatioTrace(d=staged[0].d, stages=tuple(v.n for v in staged),
                      lo=tuple(lo for lo, _ in ends), hi=tuple(hi for _, hi in ends))


# -- decimal rendering ---------------------------------------------------------


def render_quotient(num: int, den: int, places: int,
                    mode: str = "half_even") -> str:
    """Fixed-point decimal string of the nonnegative rational num / den.

    The pair need not be in lowest terms: the digits are floor(num 10^places
    / den), and the remainder decides the rounding, so no gcd is taken.
    half_even matches the reference ratio tables; floor (truncation) is used
    when a digit prefix must be certified rather than approximated.
    """
    if den < 0:
        num, den = -num, -den
    if num < 0:
        raise ValueError("only nonnegative values are rendered")
    q, rem = divmod(num * 10**places, den)
    if mode == "half_even":
        double = 2 * rem
        if double > den or (double == den and q % 2):
            q += 1
    elif mode != "floor":
        raise ValueError(f"unknown rendering mode {mode!r}")
    digits = str(q).rjust(places + 1, "0")
    return digits[:-places] + "." + digits[-places:] if places else digits


def render_decimal(value: Fraction, places: int, mode: str = "half_even") -> str:
    """Fixed-point decimal string of a nonnegative Fraction (render_quotient)."""
    return render_quotient(value.numerator, value.denominator, places, mode)


def eps_ratio_table_value(trace: RatioTrace, n: int, places: int = 14) -> str:
    """The reference-table rendering of the contraction quotient.

    The classic table lists ten times eps(n+1)/eps(n)^2 with the digit tail
    cut (not rounded); both quirks are reproduced here so the rendered
    string can be compared digit-for-digit.
    """
    num, den = trace.eps_ratio_pair(n)
    return render_quotient(10 * num, den, places, mode="floor")


# -- ordering / contraction report ---------------------------------------------


class ContractionReport(NamedTuple):
    d: int
    ok: bool
    chain_ok_from: int | None
    chain_violations: tuple[tuple[int, int], ...]
    alpha_strictly_decreasing: bool
    omega_strictly_increasing: bool
    eps_contraction_ok: bool
    limit_digits: str
    violations: tuple[str, ...]


Ends = tuple[int, int]


def decide_at_least(left: Ends, right: Ends) -> bool | None:
    """Whether x >= y for every x in [left[0], left[1]] and y in [right[0],
    right[1]].

    True when left's low end reaches right's high end, False when left's
    high end is below right's low end, None when the ends leave it open.
    Exact values, each with equal ends, are always decided.
    """
    if left[0] >= right[1]:
        return True
    if left[1] < right[0]:
        return False
    return None


def _mul(a: Ends, b: Ends) -> Ends:
    """Ends of the product of two enclosed integers of any sign."""
    if a[0] == a[1] and b[0] == b[1]:
        p = a[0] * b[0]
        return p, p
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends), max(ends)


def chain_decisions(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[bool | None]:
    """For each j < d, whether r_j >= r_{j+1}, that is c_j c_{j+2} >=
    c_{j+1}^2, for every count vector between lo and hi (decide_at_least).

    If all are True and every hi of c_1..c_{d+1} is positive, each
    lo_j lo_{j+2} is positive, so every vector of the box has positive
    counts and ratios r_0 >= ... >= r_d, and so r_0 >= r_j >= r_d.
    """
    c = tuple(zip(lo, hi))
    return [decide_at_least(_mul(c[j], c[j + 2]), _mul(c[j + 1], c[j + 1]))
            for j in range(len(c) - 2)]


class _Undecided(Exception):
    """The ends of an enclosure leave a ratio fact open."""


def _holds(left: Ends, right: Ends) -> bool:
    """decide_at_least, raising _Undecided when the ends leave it open."""
    decided = decide_at_least(left, right)
    if decided is None:
        raise _Undecided
    return decided


def check_contraction(trace: RatioTrace,
                      limit_places: int = 60) -> ContractionReport | None:
    """Verify the ratio ordering, monotonicity, and quadratic contraction.

    Asserted facts: within each stage the ratios descend, r_0 >= ... >= r_d
    (for d = 2 this starts at stage 2; stage 1 has a middle inversion);
    across stages r_0 strictly decreases and r_d strictly increases; and
    eps(n+1) < 3 eps(n)^2.  The report also carries the certified common
    digit prefix of the shared limit, bracketed by r_d's low end and r_0's
    high end at the last stage.  Each fact is decided on the ends of integer
    cross-products of the counts (decide_at_least); each side of a
    comparison takes as many factors from each stage as the other, so the
    stages' scales cancel.  Returns None, neither a pass nor a fail, when
    an enclosure's ends leave some fact open; an exact trace always decides.
    """
    try:
        return _contraction_report(trace, limit_places)
    except _Undecided:
        return None


def _contraction_report(trace: RatioTrace, limit_places: int) -> ContractionReport:
    d = trace.d
    rows = [tuple(zip(lo, hi)) for lo, hi in zip(trace.lo, trace.hi)]
    violations: list[str] = []

    chain_violations = []
    for n, lo, hi in zip(trace.stages, trace.lo, trace.hi):
        decisions = chain_decisions(lo, hi)
        if None in decisions:
            raise _Undecided
        chain_violations += [(n, j) for j, holds in enumerate(decisions) if not holds]
    chain_ok_from = None
    for n in trace.stages:
        if all(stage < n for stage, _ in chain_violations):
            chain_ok_from = n
            break
    if chain_ok_from is None:
        violations.append("ratio chain never becomes ordered")
    elif chain_ok_from > max(2, trace.stages[0]):
        violations.append(
            f"ratio chain only ordered from stage {chain_ok_from} on"
        )

    for n, c in zip(trace.stages, rows):
        if any(_holds((0, 0), x) for x in c[:d + 1]):
            violations.append(f"nonpositive ratio at stage {n}")
        if d >= 3 and _holds(c[0], c[1]):
            violations.append(f"r0 not below 1 at stage {n}")
        if d == 2 and _holds(c[d + 1], c[d]):
            # the three-corner system runs top-heavy; its ratios exceed 1
            violations.append(f"r{d} not above 1 at stage {n}")

    # r_j(n) > r_j(n')  iff  c_j(n) c_{j+1}(n') > c_j(n') c_{j+1}(n)
    pairs = list(zip(rows, rows[1:]))
    alpha_dec = all(not _holds(_mul(b[0], a[1]), _mul(a[0], b[1])) for a, b in pairs)
    omega_inc = all(not _holds(_mul(a[d], b[d + 1]), _mul(b[d], a[d + 1]))
                    for a, b in pairs)
    if not alpha_dec:
        violations.append("r0 is not strictly decreasing across stages")
    if not omega_inc:
        violations.append(f"r{d} is not strictly increasing across stages")

    def eps_ends(c):
        # eps = E/D, E = c_0 c_{d+1} - c_d c_1 of either sign, D = c_1 c_{d+1} > 0
        e_plus, e_minus = _mul(c[0], c[d + 1]), _mul(c[d], c[1])
        return (e_plus[0] - e_minus[1], e_plus[1] - e_minus[0]), _mul(c[1], c[d + 1])

    eps = [eps_ends(c) for c in rows]
    eps_ok = True
    for i, n in enumerate(trace.stages[:-1]):
        if n + 1 in trace.stages:
            # eps(n+1) < 3 eps(n)^2  iff  E_1 D_0^2 < 3 E_0^2 D_1
            e0, d0 = eps[i]
            e1, d1 = eps[trace.stages.index(n + 1)]
            if _holds(_mul(e1, _mul(d0, d0)), _mul((3, 3), _mul(_mul(e0, e0), d1))):
                eps_ok = False
                violations.append(f"eps({n + 1}) >= 3*eps({n})^2")

    lo, hi = trace.lo[-1], trace.hi[-1]
    if lo[1] == 0:
        raise _Undecided  # r_0's high end is unbounded
    low = render_quotient(lo[d], hi[d + 1], limit_places, mode="floor")
    high = render_quotient(hi[0], lo[1], limit_places, mode="floor")
    limit_digits = ""
    for a, b in zip(low, high):
        if a != b:
            break
        limit_digits += a
    limit_digits = limit_digits.rstrip(".")

    return ContractionReport(
        d=d,
        ok=not violations,
        chain_ok_from=chain_ok_from,
        chain_violations=tuple(chain_violations),
        alpha_strictly_decreasing=alpha_dec,
        omega_strictly_increasing=omega_inc,
        eps_contraction_ok=eps_ok,
        limit_digits=limit_digits,
        violations=tuple(violations),
    )
