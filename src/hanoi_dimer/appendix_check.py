"""Symbolic certificates behind the ratio monotonicity and contraction facts.

Write the stage ratios as r_j = w + gap_{j+1} + ... + gap_d, where w is the
innermost ratio r_d and gap_j = r_{j-1} - r_j are the consecutive gaps.  In
terms of the reduced ratio-form polynomials R_0..R_{d+1} (recursion images
with the forced w-power divided out), the stage-to-stage facts become
polynomial identities in (w, gaps):

  * w ascends:      R_d - R_{d+1}         has only nonnegative coefficients,
  * r_0 descends:   r_0 R_1 - w R_0       has only nonnegative coefficients,
  * quadratic gap contraction: each R_j R_{j+2} - R_{j+1}^2 has only
    nonnegative coefficients, on monomials of total gap-degree >= 2 (the
    signs carry the chain r_0 >= ... >= r_d to the next stage, the degree
    squares the outer gap each stage).

All three vanish at zero gaps (equal ratios are a fixed point), so each
is one check on the expanded numerators: no negative coefficient and no
monomial of gap-degree below 1 (2 for the contraction).  A FAIL names the
grlex-first offending term of the first failing numerator.  The gap
expansion is a binomial Taylor shift on exponent tuples, one ratio at a
time: r_j = r_{j+1} + gap_{j+1} turns r_j^e into sum_t C(e, t)
gap_{j+1}^t r_{j+1}^(e-t), accumulated in one dict with cancelled terms
dropped after each pass.  A term budget on each pass's raw outgrowth, and
on the raw terms of the products that build a contraction numerator, aborts
oversized runs ("not attempted") rather than reporting partial results.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import DEFAULT_TERM_BUDGET, CapExceeded
from .multipoly import Polynomial, _grlex_key, serialize
# bound here only as the name perfbench/traced_cli.py wraps at start-up
from .multipoly import substitute  # noqa: F401
from .recursion_gen import (
    RecursionSystem,
    generate,
    ratio_varset,
    reduced_ratio_form,
)


def gap_varset(d: int) -> tuple[str, ...]:
    return ("w",) + tuple(f"gap{j}" for j in range(1, d + 1))


def gap_expansion(poly: Polynomial, d: int,
                  term_budget: int = DEFAULT_TERM_BUDGET) -> Polynomial:
    """Rewrite a ratio-basis polynomial over (w, gap1..gapd).

    A binomial Taylor shift on the exponent tuples, one ratio at a time:
    pass j expands r_j^e = sum_t C(e, t) gap_{j+1}^t r_{j+1}^(e-t), so slot j
    then holds the gap_{j+1} exponent, and drops the terms that cancel.  The
    last slot, r_d, is w.  Exact, no numerics.  Before each pass the raw
    outgrowth sum(e + 1) is checked against the term budget (CapExceeded);
    it also bounds the terms the pass leaves.  A variable outside r0..rd
    raises ValueError.
    """
    # the term dicts themselves: terms() would sort, Polynomial() re-validate
    terms = poly.with_varset(ratio_varset(d))._terms
    binomials: dict[int, list[int]] = {}
    for j in range(d):
        outgrowth = sum(exps[j] + 1 for exps in terms)
        if outgrowth > term_budget:
            raise CapExceeded(
                f"gap expansion would pass {outgrowth} raw terms, above "
                f"the budget of {term_budget}; raise it with --term-budget"
            )
        shifted: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            e = exps[j]
            head, rest, tail = exps[:j], exps[j + 1] + e, exps[j + 2:]
            row = binomials.get(e)
            if row is None:
                row = binomials[e] = [comb(e, t) for t in range(e + 1)]
            for t, b in enumerate(row):
                key = head + (t, rest - t) + tail
                shifted[key] = shifted.get(key, 0) + coeff * b
        terms = {exps: c for exps, c in shifted.items() if c}
    return Polynomial._raw(gap_varset(d),
                           {exps[d:] + exps[:d]: c for exps, c in terms.items()})


def w_power_coefficient(poly: Polynomial, power: int) -> Polynomial:
    """The coefficient of w^power, as a polynomial in the gap variables."""
    gaps = poly.varset[1:]
    assert poly.varset[0] == "w"
    terms = {}
    for exps, coeff in poly.terms():
        if exps[0] == power:
            terms[exps[1:]] = coeff
    return Polynomial(gaps, terms)


def gap_degree(exps: tuple[int, ...]) -> int:
    # exponent layout (w, gap1..gapd)
    return sum(exps[1:])


class CertificateReport(NamedTuple):
    name: str
    d: int
    attempted: bool
    passed: bool | None
    term_count: int
    offending_monomial: str | None
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.attempted and bool(self.passed)


def _expansion_certificate(name: str, d: int, numerators, min_gap_degree: int,
                           term_budget: int) -> CertificateReport:
    """Expand each (label, numerator) in turn and FAIL on the grlex-first
    term with a negative coefficient or gap-degree < min_gap_degree.

    term_count sums the expansions through the failing numerator.  The
    numerators may come from a generator, so only one is held at a time; a
    CapExceeded from it or from an expansion reports NOT ATTEMPTED.
    """
    total_terms = 0
    try:
        for label, numerator in numerators:
            expanded = gap_expansion(numerator, d, term_budget)
            total_terms += expanded.term_count()
            # the failing term terms() would reach first, from an unsorted scan
            first = max(((exps, coeff) for exps, coeff in expanded._terms.items()
                         if coeff < 0 or gap_degree(exps) < min_gap_degree),
                        key=lambda term: _grlex_key(term[0]), default=None)
            if first is not None:
                break
        else:
            return CertificateReport(
                name=name, d=d, attempted=True, passed=True, term_count=total_terms,
                offending_monomial=None,
            )
    except CapExceeded as err:
        return CertificateReport(
            name=name, d=d, attempted=False, passed=None, term_count=0,
            offending_monomial=None, notes=(f"not attempted: {err}",),
        )
    exps, coeff = first
    offending = serialize(Polynomial(expanded.varset, {exps: coeff}))
    if coeff < 0:
        problem = f"negative coefficient on {offending}"
    elif min_gap_degree == 1:
        problem = f"gap-free monomial {offending}: no fixed point at equal ratios"
    else:
        problem = f"monomial {offending} has gap-degree < {min_gap_degree}"
    return CertificateReport(
        name=name, d=d, attempted=True, passed=False, term_count=total_terms,
        offending_monomial=offending, notes=(label + problem,),
    )


def omega_ascending_certificate(
    d: int, system: RecursionSystem | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> CertificateReport:
    """r_d grows every stage: R_d - R_{d+1} >= 0 coefficientwise in (w, gaps)."""
    reduced = reduced_ratio_form(system or generate(d))
    return _expansion_certificate(
        "omega-ascending", d, [("", reduced[d] - reduced[d + 1])], 1, term_budget
    )


def alpha_descending_certificate(
    d: int, system: RecursionSystem | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> CertificateReport:
    """r_0 shrinks every stage: r_0 R_1 - w R_0 >= 0 coefficientwise.

    r_0(n) - r_0(n+1) equals that numerator over the positive R_1, so
    nonnegative coefficients prove the descent.
    """
    reduced = reduced_ratio_form(system or generate(d))
    rvars = ratio_varset(d)
    r0 = Polynomial.variable(rvars, "r0")
    rd = Polynomial.variable(rvars, f"r{d}")
    numerator = r0 * reduced[1] - rd * reduced[0]
    return _expansion_certificate(
        "alpha-descending", d, [("", numerator)], 1, term_budget
    )


def quadratic_contraction_certificate(
    d: int, system: RecursionSystem | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> CertificateReport:
    """Adjacent ratio gaps contract quadratically, and stay ordered.

    For each pair j, the numerator of r_j(n+1) - r_{j+1}(n+1) is
    R_j R_{j+2} - R_{j+1}^2.  Nonnegative coefficients carry the chain
    r_j >= r_{j+1} to the next stage; every monomial carrying gap-degree >= 2
    is exactly what bounds the new gap by (old outer gap)^2 times positive
    factors.  Each numerator is priced before it is built: its products
    pass n_j n_{j+2} + n_{j+1}^2 raw terms, from the factors' term counts
    n, and over the term budget the certificate is not attempted.
    """
    reduced = reduced_ratio_form(system or generate(d))

    def numerators():
        for j in range(d):
            low, mid, high = reduced[j], reduced[j + 1], reduced[j + 2]
            raw = low.term_count() * high.term_count() + mid.term_count() ** 2
            if raw > term_budget:
                raise CapExceeded(
                    f"pair {j} products would pass {raw} raw terms, above the "
                    f"budget of {term_budget}; raise it with --term-budget"
                )
            yield f"pair {j}: ", low * high - mid**2

    return _expansion_certificate(
        "quadratic-contraction", d, numerators(), 2, term_budget
    )


CERTIFICATES = {
    "omega": omega_ascending_certificate,
    "alpha": alpha_descending_certificate,
    "contraction": quadratic_contraction_certificate,
}


def run_certificates(d: int, which: str = "all",
                     term_budget: int = DEFAULT_TERM_BUDGET,
                     system: RecursionSystem | None = None) -> list[CertificateReport]:
    if which == "all":
        names = list(CERTIFICATES)
    elif which in CERTIFICATES:
        names = [which]
    else:
        raise ValueError(f"unknown certificate {which!r}; "
                         f"pick from {', '.join(CERTIFICATES)} or all")
    system = system or generate(d)
    return [CERTIFICATES[name](d, system, term_budget) for name in names]
