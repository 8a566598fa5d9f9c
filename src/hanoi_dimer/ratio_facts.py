"""The ratio facts of evolved stages, decided on integer cross-products.

The consecutive class ratios r_j = c_j/c_{j+1} share a common limit; r_0
decreases and r_d increases toward it, and their gap contracts
quadratically.  These ratios are never normalized: a RatioTrace keeps each
stage's counts as the ends of an enclosure (equal ends where the stage is
exact), check_contraction decides every fact on the ends of integer
cross-products of them (evolve.decide_at_least; the chain by
evolve.chain_decisions, which entropy.bounds uses too), and each exact value
is rendered from its unreduced (num, den) pair (render_quotient), so no gcd
of the long counts is taken.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IntegrityError
from .evolve import (
    BoundaryClassVector,
    CountInterval,
    Ends,
    _mul,
    certified_digit_prefix,
    chain_decisions,
    decide_at_least,
)


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
    integer cross-products.  The values (ratio_pair, eps_pair,
    eps_ratio_pair) are read off exact stages only, as unreduced
    (num, den) pairs.  Checked on every construction, _make and _replace
    included.
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
    limit_digits, _ = certified_digit_prefix(
        render_quotient(lo[d], hi[d + 1], limit_places, mode="floor"),
        render_quotient(hi[0], lo[1], limit_places, mode="floor"))

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
