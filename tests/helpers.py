"""Shared test utilities: classic-symbol polynomial parsing, the per-term
reference serializer, fixtures, the connector-subset census, the
degree-profile stage step, the substitution-based gap expansion, the
Fraction ratio bracket, the exact-count entropy bounds, the
per-corner-subset class vector, and the Fraction-based decimal rendering
and contraction report."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import hanoi_dimer
from hanoi_dimer import entropy
from hanoi_dimer.appendix_check import gap_varset
from hanoi_dimer.errors import CapExceeded, IntegrityError
from hanoi_dimer.evolve import BoundaryClassVector, ContractionReport, RatioTrace
from hanoi_dimer.hanoi_graph import HanoiGraph, connector_edges
from hanoi_dimer.intutil import digit_count
from hanoi_dimer.matching_oracle import (
    CornerConstraint,
    CornerState,
    count_constrained,
    count_matchings,
)
from hanoi_dimer.multipoly import Polynomial, substitute

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


def serialize_by_terms(p: Polynomial) -> str:
    """The canonical text form built term by term: each polynomial sorts its
    own monomials and writes each monomial's text anew.  The reference for
    ``multipoly.serialize_many``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps, coeff in p.terms():
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


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's hanoi_dimer."""
    src = str(Path(hanoi_dimer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
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
        (lam_lo // div_lam + qw_lo // div_q) // grain, precision, "floor")
    upper = entropy.HighPrecisionReal(entropy.ceil_div(
        entropy.ceil_div(lam_hi, div_lam) + entropy.ceil_div(qa_hi, div_q), grain),
        precision, "ceiling")
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
    """Reference for evolve.render_quotient: the digits of the reduced
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
    """Reference for evolve.check_contraction: every fact decided on the
    trace's Fraction rows, as the report was made before it compared
    integer cross-products."""
    d = trace.d
    rows = trace.ratios
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
