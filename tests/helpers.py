"""Shared test utilities: classic-symbol polynomial parsing, the per-term
reference serializer, fixtures, the connector-subset census, the
degree-profile stage step, the substitution-based gap expansion, the
Fraction extension weights, the Fraction ratio bracket, the exact-count
entropy bounds, the per-corner-subset class vector, and the Fraction-based
decimal rendering and contraction report.  Also the references that no
command runs: Polynomial accessors, graph sizes, mixed counts, ratio forms,
the gap expansion, hp_ln, the finite sandwich and Fraction ratios.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, lcm
from pathlib import Path
from typing import NamedTuple

import hanoi_dimer
from hanoi_dimer import appendix_check, entropy
from hanoi_dimer.appendix_check import gap_varset
from hanoi_dimer.errors import (
    DEFAULT_PRECISION,
    DEFAULT_TERM_BUDGET,
    CapExceeded,
    IntegrityError,
)
from hanoi_dimer.evolve import BoundaryClassVector
from hanoi_dimer.ratio_facts import ContractionReport, RatioTrace, render_quotient
from hanoi_dimer.hanoi_graph import HanoiGraph, connector_edges
from hanoi_dimer.intutil import digit_count
from hanoi_dimer.matching_oracle import (
    CornerConstraint,
    CornerState,
    count_constrained,
    count_matchings,
)
from hanoi_dimer.multipoly import Polynomial, _grlex_key, substitute
from hanoi_dimer.recursion_gen import RecursionSystem, class_varset
from hanoi_dimer.scan import t_point

DATA_DIR = Path(__file__).parent / "data"
REPO_DIR = Path(__file__).resolve().parents[1]

# census walks every subset one by one: 2^21 admits d <= 6
CENSUS_SUBSET_CAP = 1 << 21

CLASSIC_SYMBOLS_D3 = "fghts"
CLASS_VARS_D3 = tuple(f"c{i}" for i in range(5))


def parse_classic(rhs: str, symbols: str, varset: tuple[str, ...]) -> Polynomial:
    """Parse compact single-letter polynomial text like ``64f^4+384f^3g``.

    Implicit multiplication, ``^`` powers, ``+``-separated nonnegative terms;
    each symbol maps positionally onto the given varset.
    """
    sym_re = f"[{symbols}]"
    terms: dict[tuple[int, ...], int] = {}
    for term in rhs.replace(" ", "").split("+"):
        m = re.fullmatch(rf"(\d*)((?:{sym_re}(?:\^\d+)?)*)", term)
        if not m:
            raise ValueError(f"bad classic term {term!r}")
        coeff = int(m.group(1) or 1)
        exps = [0] * len(varset)
        for sym, power in re.findall(rf"({sym_re})(?:\^(\d+))?", m.group(2)):
            exps[symbols.index(sym)] += int(power or 1)
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"duplicate monomial in fixture: {term!r}")
        terms[key] = coeff
    return Polynomial(varset, terms)


def zero(varset: tuple[str, ...]) -> Polynomial:
    return Polynomial(varset, {})


def is_zero(p: Polynomial) -> bool:
    return not p._terms


def terms(p: Polynomial):
    """(exponents, coefficient) pairs in graded-lex order, largest first."""
    order = sorted(p._terms, key=_grlex_key, reverse=True)
    return ((exps, p._terms[exps]) for exps in order)


def coefficient(p: Polynomial, exps: dict[str, int]) -> int:
    key = tuple(exps.get(name, 0) for name in p.varset)
    return p._terms.get(key, 0)


def coefficient_sum(p: Polynomial) -> int:
    return sum(p._terms.values())


def serialize_by_terms(p: Polynomial) -> str:
    """The canonical text form built term by term: each polynomial sorts its
    own monomials and writes each monomial's text anew.  The reference for
    ``multipoly.serialize_many``."""
    if is_zero(p):
        return "0"
    parts: list[str] = []
    for exps, coeff in terms(p):
        factors = []
        for name, e in zip(p.varset, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        body = str(mag) if not factors else f"{mag}*" + "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def python_env() -> dict[str, str]:
    """This process's environment, with this checkout's hanoi_dimer first on
    PYTHONPATH."""
    src = str(Path(hanoi_dimer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's hanoi_dimer."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=300,
        env=python_env(),
    )


def load_golden_d3() -> dict[str, Polynomial]:
    """The reference d=3 system, mapped onto the c0..c4 basis."""
    out: dict[str, Polynomial] = {}
    for line in (DATA_DIR / "golden_recursions_d3.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        lhs, rhs = line.split(": ", 1)
        out[lhs] = parse_classic(rhs, CLASSIC_SYMBOLS_D3, CLASS_VARS_D3)
    return out


@dataclass(frozen=True)
class DegreeCensus:
    """Connector-edge subsets of K_{d+1} grouped by sorted degree multiset."""

    d: int
    counts: dict[tuple[int, ...], int]

    def total_subsets(self) -> int:
        return sum(self.counts.values())


def census(d: int, subset_cap: int = CENSUS_SUBSET_CAP) -> DegreeCensus:
    """Exhaustive walk of all connector-edge subsets, grouped by degree multiset.

    Gray-code order keeps the per-subset update O(1).  Refuses when
    2^C(d+1,2) exceeds subset_cap.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    pairs = [pair for pair, _ in connector_edges(d)]
    n_edges = len(pairs)
    total = 1 << n_edges
    if total > subset_cap:
        raise CapExceeded(
            f"census for d={d} needs {total} subsets, above the cap of "
            f"{subset_cap}"
        )
    degrees = [0] * (d + 1)
    counts: dict[tuple[int, ...], int] = {}
    key = tuple(degrees)
    counts[key] = 1
    included = [False] * n_edges
    for k in range(1, total):
        bit = (~(k - 1) & k).bit_length() - 1
        i, j = pairs[bit]
        delta = -1 if included[bit] else 1
        included[bit] = not included[bit]
        degrees[i] += delta
        degrees[j] += delta
        key = tuple(sorted(degrees))
        counts[key] = counts.get(key, 0) + 1
    return DegreeCensus(d=d, counts=counts)


@cache
def degree_profile_totals(d: int) -> dict[tuple[int, ...], int]:
    """Ordered connector-degree sequences of K_{d+1} with their subset counts.

    A transfer scan over the edges, independent of the copy scan; weighted
    by prod_i 2^(d - deg_i) it gives the coefficient total of every class
    polynomial, which generate takes in closed form.
    """
    profile: dict[tuple[int, ...], int] = {(0,) * (d + 1): 1}
    for (i, j), _ in connector_edges(d):
        grown: dict[tuple[int, ...], int] = {}
        for degs, cnt in profile.items():
            grown[degs] = grown.get(degs, 0) + cnt
            up = list(degs)
            up[i] += 1
            up[j] += 1
            key = tuple(up)
            grown[key] = grown.get(key, 0) + cnt
        profile = grown
    return profile


def degree_profile_step(d: int, counts) -> tuple[tuple[int, ...], int]:
    """Reference for evolve.step and recursion_gen.generate: the next
    stage's class counts and M from the ordered connector-degree profile.

    Copies 0..k-1 have their global corner dimer-forced and the rest
    monomer-forced, so c_k(n+1) = sum cnt * prod_{i<k} N(deg_i, 1) *
    prod_{i>=k} N(deg_i+1, 0) and M = sum cnt * prod_i N(deg_i, 0), with
    N(a, b) = sum_j C(d+1-a-b, j) c_{b+j} over any integer counts.
    """
    def mixed(a, b):
        free = d + 1 - a - b
        return sum(comb(free, j) * counts[b + j] for j in range(free + 1))

    dimer = [mixed(deg, 1) for deg in range(d + 1)]
    monomer = [mixed(deg + 1, 0) for deg in range(d + 1)]
    free = [mixed(deg, 0) for deg in range(d + 1)]
    classes = [0] * (d + 2)
    m = 0
    for degs, cnt in degree_profile_totals(d).items():
        tails = [cnt]  # tails[j]: cnt * prod_{i >= d+1-j} N(deg_i+1, 0)
        for deg in reversed(degs):
            tails.append(tails[-1] * monomer[deg])
        head = 1
        for k in range(d + 2):
            classes[k] += head * tails[d + 1 - k]
            if k <= d:
                head *= dimer[degs[k]]
        total = cnt
        for deg in degs:
            total *= free[deg]
        m += total
    return tuple(classes), m


def gap_expansion_by_substitution(poly: Polynomial, d: int) -> Polynomial:
    """Reference for appendix_check.gap_expansion: the generic substitute,
    one binding r_j = r_{j+1} + gap_{j+1} at a time, then r_d = w."""
    current = poly
    for j in range(d):
        rj, rnext, gap = f"r{j}", f"r{j + 1}", f"gap{j + 1}"
        if rj in current.varset:
            binding = Polynomial((rnext, gap), {(1, 0): 1, (0, 1): 1})
            current = substitute(current, {rj: binding})
    if f"r{d}" in current.varset:
        current = substitute(current, {f"r{d}": Polynomial(("w",), {(1,): 1})})
    return current.with_varset(gap_varset(d))


def extension_weights_by_fractions(n: int) -> tuple[tuple[int, ...], int]:
    """Reference for scan._extension_weights: each Lagrange weight a
    Fraction, all of them put over the lcm of their denominators."""
    xs = [t_point(j) for j in range(n + 1)]
    weights = []
    for j in range(n):
        weight = Fraction(1)
        for m in range(n):
            if m != j:
                weight *= Fraction(xs[n] - xs[m], xs[j] - xs[m])
        weights.append(weight)
    den = lcm(*(weight.denominator for weight in weights))
    return tuple(int(weight * den) for weight in weights), den


def fraction_bracketed(counts: tuple[int, ...]) -> bool:
    """Whether r_0 >= r_j >= r_d for the ratios r_j = c_j / c_{j+1} of counts,
    compared as Fractions (ZeroDivisionError on a zero denominator)."""
    row = [Fraction(a, b) for a, b in zip(counts, counts[1:])]
    return max(row) == row[0] and min(row) == row[-1]


def exact_bounds(d: int, k: int, v: BoundaryClassVector, precision: int):
    """Reference for entropy.bounds: (lower, upper, certified digits, lambda
    digits) read off the exact stage-k counts, as bounds did before it
    enclosed them in intervals."""
    if not fraction_bracketed(v.counts):
        raise IntegrityError(f"stage-{k} ratios of d={d} are not bracketed")
    c = v.counts
    w = precision + entropy.GUARD_DIGITS
    lam_lo, lam_hi = (entropy._ln_int_end(c[d + 1], w, upper) for upper in (False, True))
    qw_lo = entropy._ln_ratio_end(*entropy._edge_factor(c[d], c[d + 1]), w, False)
    qa_hi = entropy._ln_ratio_end(*entropy._edge_factor(c[0], c[1]), w, True)
    div_lam, div_q = (d + 1) ** (k + 1), 2 * (d + 1) ** k
    grain = 10**entropy.GUARD_DIGITS
    lower = entropy.HighPrecisionReal(
        (lam_lo // div_lam + qw_lo // div_q) // grain, precision)
    upper = entropy.HighPrecisionReal(entropy.ceil_div(
        entropy.ceil_div(lam_hi, div_lam) + entropy.ceil_div(qa_hi, div_q), grain),
        precision)
    _, digits = entropy.certified_digit_prefix(lower.as_decimal(), upper.as_decimal())
    return lower, upper, digits, digit_count(c[d + 1])


def boundary_class_vector_by_subsets(graph: HanoiGraph) -> BoundaryClassVector:
    """Reference for matching_oracle.boundary_class_vector: one constrained
    counter run per corner subset (dimer on the subset, monomer elsewhere),
    each k-subset required to give the same count, plus one run for M."""
    d = graph.d
    counts = []
    for k in range(d + 2):
        seen = {
            count_constrained(graph, CornerConstraint(tuple(
                CornerState.DIMER if i in chosen else CornerState.MONOMER
                for i in range(d + 1))))
            for chosen in combinations(range(d + 1), k)
        }
        if len(seen) != 1:
            raise IntegrityError(
                f"corner-symmetry violation for k={k} on TH_{d}({graph.n}): "
                f"distinct counts {sorted(seen)}"
            )
        counts.append(seen.pop())
    return BoundaryClassVector(d=d, n=graph.n, counts=tuple(counts),
                               m=count_matchings(graph))


def render_decimal_by_fraction(value: Fraction, places: int,
                               mode: str = "half_even") -> str:
    """Reference for ratio_facts.render_quotient: the digits of the reduced
    Fraction value * 10^places, as render_decimal read them before it took
    unreduced integer pairs."""
    if value < 0:
        raise ValueError("only nonnegative values are rendered")
    scaled = value * 10**places
    num, den = scaled.numerator, scaled.denominator
    q, rem = divmod(num, den)
    if mode == "half_even":
        double = 2 * rem
        if double > den or (double == den and q % 2):
            q += 1
    elif mode != "floor":
        raise ValueError(f"unknown rendering mode {mode!r}")
    digits = str(q).rjust(places + 1, "0")
    return digits[:-places] + "." + digits[-places:] if places else digits


def check_contraction_by_fractions(trace: RatioTrace,
                                   limit_places: int = 60) -> ContractionReport:
    """Reference for ratio_facts.check_contraction: every fact decided on the
    trace's Fraction rows, as the report was made before it compared
    integer cross-products."""
    d = trace.d
    rows = ratio_rows(trace)
    violations: list[str] = []

    chain_violations: list[tuple[int, int]] = []
    for n, row in zip(trace.stages, rows):
        for j in range(d):
            if row[j] < row[j + 1]:
                chain_violations.append((n, j))
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

    for n, row in zip(trace.stages, rows):
        if any(r <= 0 for r in row):
            violations.append(f"nonpositive ratio at stage {n}")
        if d >= 3 and row[0] >= 1:
            violations.append(f"r0 not below 1 at stage {n}")
        if d == 2 and row[d] <= 1:
            violations.append(f"r{d} not above 1 at stage {n}")

    alpha = [row[0] for row in rows]
    omega = [row[d] for row in rows]
    alpha_dec = all(a > b for a, b in zip(alpha, alpha[1:]))
    omega_inc = all(a < b for a, b in zip(omega, omega[1:]))
    if not alpha_dec:
        violations.append("r0 is not strictly decreasing across stages")
    if not omega_inc:
        violations.append(f"r{d} is not strictly increasing across stages")

    eps = {n: row[0] - row[d] for n, row in zip(trace.stages, rows)}
    eps_ok = True
    for n in trace.stages[:-1]:
        if n + 1 in eps and not eps[n + 1] < 3 * eps[n] ** 2:
            eps_ok = False
            violations.append(f"eps({n + 1}) >= 3*eps({n})^2")

    lo = render_decimal_by_fraction(rows[-1][d], limit_places, mode="floor")
    hi = render_decimal_by_fraction(rows[-1][0], limit_places, mode="floor")
    limit_digits = ""
    for a, b in zip(lo, hi):
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


def expected_vertex_count(d: int, n: int) -> int:
    return (d + 1) ** (n + 1)


def expected_edge_count(d: int, n: int) -> int:
    return (d + 1) * ((d + 1) ** (n + 1) - 1) // 2


def mixed_count_expansion(d: int, a: int, b: int) -> Polynomial:
    """N(a, b) as a class-basis polynomial: sum_j C(d+1-a-b, j) c_{b+j}."""
    free = d + 1 - a - b
    return Polynomial(class_varset(d), {tuple(int(i == b + j) for i in range(d + 2)):
                                        comb(free, j) for j in range(free + 1)})


def ratio_varset(d: int) -> tuple[str, ...]:
    return tuple(f"r{j}" for j in range(d + 1))


def ratio_form(sys: RecursionSystem) -> tuple[Polynomial, ...]:
    """Images of the class polynomials under c_k -> (prod_{j>=k} r_j) c_{d+1}:
    each recursion polynomial is c_{d+1}^{d+1} times its image over r0..rd."""
    images = []
    for poly in sys.class_polys:
        image: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly._terms.items():
            key = tuple(sum(exps[:j + 1]) for j in range(sys.d + 1))
            image[key] = image.get(key, 0) + coeff
        images.append(Polynomial(ratio_varset(sys.d), image))
    return tuple(images)


def reduced_ratio_form(sys: RecursionSystem) -> tuple[Polynomial, ...]:
    """The reference for appendix_check._pack_form: the ratio images with the
    r_d^{d+1-k} factor divided out, so that r_k(n+1) = r_d R_k / R_{k+1}."""
    d, reduced = sys.d, []
    for k, image in enumerate(ratio_form(sys)):
        drop = d + 1 - k
        if any(exps[d] < drop for exps in image._terms):
            raise IntegrityError(f"ratio image of c{k} not divisible by r{d}^{drop}")
        reduced.append(Polynomial(ratio_varset(d), {
            exps[:d] + (exps[d] - drop,): c for exps, c in image._terms.items()}))
    return tuple(reduced)


def pack(poly: Polynomial, d: int, width: int) -> dict[int, int]:
    """poly over r0..rd as packed keys of width-bit fields, the total degree
    on top: ValueError for another variable, IntegrityError for a term whose
    degree does not fit."""
    packed = {}
    for exps, coeff in poly.with_varset(ratio_varset(d))._terms.items():
        key = sum(exps)
        if key >> width:
            raise IntegrityError(
                f"a degree-{key} term does not fit {width}-bit exponent fields")
        for e in exps:
            key = key << width | e
        packed[key] = coeff
    return packed


def unpack(terms: dict[int, int], d: int, width: int) -> Polynomial:
    """An expanded packed dict as a Polynomial over (w, gap1..gapd)."""
    mask = (1 << width) - 1
    return Polynomial(gap_varset(d), {
        (key & mask,) + tuple(key >> (d - j) * width & mask for j in range(d)): c
        for key, c in terms.items()})


def gap_expansion(poly: Polynomial, d: int,
                  term_budget: int = DEFAULT_TERM_BUDGET) -> Polynomial:
    """poly over (w, gap1..gapd) by the certificates' Taylor shift, at the
    width its own largest degree needs (read from the module, so that a
    test can narrow it)."""
    width = appendix_check._field_width(max(map(sum, poly._terms), default=0))
    expanded = appendix_check._expand(pack(poly, d, width), d, width, term_budget)
    return unpack(expanded, d, width)


def w_power_coefficient(poly: Polynomial, power: int) -> Polynomial:
    """The coefficient of w^power, as a polynomial in the gap variables."""
    return Polynomial(poly.varset[1:], {exps[1:]: c for exps, c in poly._terms.items()
                                        if exps[0] == power})


def gap_degree(exps: tuple[int, ...]) -> int:
    return sum(exps[1:])  # exponent layout (w, gap1..gapd)


def hp_ln(x: int | Fraction, precision: int = DEFAULT_PRECISION,
          rounding: str = "floor") -> entropy.HighPrecisionReal:
    """ln of a positive integer or rational to precision digits, rounded
    "floor" or "ceiling", from one end of entropy's enclosure."""
    value, upper = Fraction(x), rounding == "ceiling"
    end = entropy._ln_ratio_end(value.numerator, value.denominator,
                                precision + entropy.GUARD_DIGITS, upper)
    grain = 10**entropy.GUARD_DIGITS
    scaled = entropy.ceil_div(end, grain) if upper else end // grain
    return entropy.HighPrecisionReal(scaled, precision)


def as_fraction(real: entropy.HighPrecisionReal) -> Fraction:
    return Fraction(real.scaled, 10**real.precision)


class SandwichReport(NamedTuple):
    d: int
    k: int
    n: int
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_finite_sandwich(d: int, k: int, n: int,
                          vectors: list[BoundaryClassVector]) -> SandwichReport:
    """Exact rational check of lambda(k)^{(d+1)^(n-k)} q(omega_k)^{(d+1)
    ((d+1)^(n-k)-1)/2} (1+omega_n)^{d+1} < M(n) < the same with alpha, where
    q(x) = 1 + 2x + 2x^2; a violation raises IntegrityError."""
    vk, vn = ({v.n: v for v in vectors}[stage] for stage in (k, n))
    copies = (d + 1) ** (n - k)

    def side(j: int) -> Fraction:  # r_j = c_j / c_{j+1} at stages k and n
        r_k, r_n = (Fraction(v.counts[j], v.counts[j + 1]) for v in (vk, vn))
        middle = (1 + 2 * r_k + 2 * r_k**2) ** ((d + 1) * (copies - 1) // 2)
        return vk.counts[d + 1] ** copies * middle * (1 + r_n) ** (d + 1)

    report = SandwichReport(d, k, n, side(d) < vn.m, vn.m < side(0))
    if not report.ok:
        raise IntegrityError(f"finite sandwich violated for d={d}, k={k}, n={n}")
    return report


def render_decimal(value: Fraction, places: int, mode: str = "half_even") -> str:
    return render_quotient(value.numerator, value.denominator, places, mode)


def ratio(trace: RatioTrace, n: int, j: int) -> Fraction:
    return Fraction(*trace.ratio_pair(n, j))


def eps(trace: RatioTrace, n: int) -> Fraction:
    return Fraction(*trace.eps_pair(n))  # r_0(n) - r_d(n)


def eps_ratio(trace: RatioTrace, n: int) -> Fraction:
    return Fraction(*trace.eps_ratio_pair(n))  # eps(n+1) / eps(n)^2


def ratio_rows(trace: RatioTrace) -> tuple[tuple[Fraction, ...], ...]:
    """Rows r_0..r_d per stage; ValueError on an enclosure stage."""
    return tuple(tuple(ratio(trace, n, j) for j in range(trace.d + 1))
                 for n in trace.stages)
