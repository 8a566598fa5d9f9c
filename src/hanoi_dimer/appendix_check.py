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
grlex-first offending term of the first failing numerator.

The numerators are built and expanded on packed monomial keys (Kronecker
substitution): a monomial r_0^e_0 ... r_d^e_d of total degree D is the
integer with fields D, e_0, ..., e_d of `width` bits each, D most
significant and e_d = the w exponent least.  A product of monomials is
the sum of their keys.  The gap expansion is a binomial Taylor shift, one
ratio at a time: r_j = r_{j+1} + gap_{j+1} turns r_j^e into
sum_u C(e, u) gap_{j+1}^(e-u) r_{j+1}^u, which moves u from field j to
field j+1 of the key, so field j then holds the gap_{j+1} exponent.  The
shift and the products keep every term's total degree, and no field
exceeds it, so once the width holds the largest degree a numerator can
reach no field carries into the next; packing and every product check
that degree and raise IntegrityError where it does not fit.  The gap
degree of a term is its total-degree field less its w field.  A term
budget on each pass's raw outgrowth, and on the raw terms of the products
that build a contraction numerator, aborts oversized runs ("not
attempted") rather than reporting partial results.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import DEFAULT_TERM_BUDGET, CapExceeded, IntegrityError
from .multipoly import Polynomial, _grlex_key, serialize
# bound here only as the name perfbench/traced_cli.py wraps at start-up
from .multipoly import substitute  # noqa: F401
from .recursion_gen import (
    RecursionSystem,
    generate,
    ratio_varset,
    reduced_ratio_form,
)

Packed = dict[int, int]  # packed monomial key -> nonzero coefficient


def gap_varset(d: int) -> tuple[str, ...]:
    return ("w",) + tuple(f"gap{j}" for j in range(1, d + 1))


# -- packed monomial keys ------------------------------------------------------


def _field_width(max_degree: int) -> int:
    # every exponent field of a term holds at most its total degree
    return max(max_degree, 1).bit_length()


def _pack(poly: Polynomial, d: int, width: int) -> Packed:
    """poly's terms over r0..rd as packed keys with `width`-bit fields.

    A variable outside r0..rd raises ValueError, a term whose total degree
    does not fit the width IntegrityError.
    """
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


def _unpack_key(key: int, d: int, width: int) -> tuple[int, ...]:
    # an expanded key's exponents in gap_varset order: w, then gap1..gapd
    mask = (1 << width) - 1
    return (key & mask,) + tuple(key >> (d - j) * width & mask for j in range(d))


def _unpack(terms: Packed, d: int, width: int) -> Polynomial:
    """An expanded packed dict as a Polynomial over gap_varset(d)."""
    return Polynomial._raw(gap_varset(d), {_unpack_key(key, d, width): coeff
                                           for key, coeff in terms.items()})


def _add_product(out: Packed, a: Packed, b: Packed, sign: int, d: int,
                 width: int) -> None:
    """Accumulate sign * a * b into out.

    The largest key holds the largest total degree, so the product's top
    degree is known before any term is formed; IntegrityError if it does
    not fit the width.
    """
    if not a or not b:
        return
    top = (d + 1) * width
    degree = (max(a) >> top) + (max(b) >> top)
    if degree >> width:
        raise IntegrityError(
            f"a degree-{degree} product does not fit {width}-bit exponent fields")
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    for k2, c2 in b.items():
        c2 *= sign
        for k1, c1 in a.items():
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _drop_zeros(terms: Packed) -> Packed:
    # in place: a filtered copy would hold a second table at the peak
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    return terms


def _expand(terms: Packed, d: int, width: int, term_budget: int) -> Packed:
    """The binomial Taylor shift of packed ratio-basis terms into gap fields.

    Pass j expands r_j^e = sum_u C(e, u) gap_{j+1}^(e-u) r_{j+1}^u: it
    reads e from field j, at bit s_j = (d - j) width, and emits
    key + u (2^s_{j+1} - 2^s_j) with coefficient C(e, u) times the
    term's, then drops the terms that cancel.  Before each
    pass the raw outgrowth sum(e + 1) is checked against the term budget
    (CapExceeded); it also bounds the terms the pass leaves.
    """
    mask = (1 << width) - 1
    for j in range(d):
        shift = (d - j) * width
        outgrowth = len(terms) + sum(key >> shift & mask for key in terms)
        if outgrowth > term_budget:
            raise CapExceeded(
                f"gap expansion would pass {outgrowth} raw terms, above "
                f"the budget of {term_budget}; raise it with --term-budget"
            )
        step = (1 << (shift - width)) - (1 << shift)
        rows: dict[int, list[tuple[int, int]]] = {}  # e -> [(offset, C(e, u))]
        shifted: Packed = {}
        get = shifted.get
        for key, coeff in terms.items():
            e = key >> shift & mask
            row = rows.get(e)
            if row is None:
                row = rows[e] = [(u * step, comb(e, u)) for u in range(e + 1)]
            for offset, b in row:
                out = key + offset
                shifted[out] = get(out, 0) + coeff * b
        terms = _drop_zeros(shifted)
    return terms


def gap_expansion(poly: Polynomial, d: int,
                  term_budget: int = DEFAULT_TERM_BUDGET) -> Polynomial:
    """Rewrite a ratio-basis polynomial over (w, gap1..gapd).

    The packed Taylor shift of `_expand`, at the width poly's own largest
    degree needs; slot j of the result then holds the gap_{j+1} exponent
    and the last slot, r_d, is w.  Exact, no numerics.  A pass whose raw
    outgrowth passes the term budget raises CapExceeded, and a variable
    outside r0..rd ValueError.
    """
    rvars = ratio_varset(d)
    degree = max(map(sum, poly.with_varset(rvars)._terms), default=0)
    width = _field_width(degree)
    return _unpack(_expand(_pack(poly, d, width), d, width, term_budget), d, width)


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


class PackedForms(NamedTuple):
    """The reduced ratio forms R_0..R_{d+1}, packed once for every certificate.

    width holds the largest degree any numerator reaches: twice the forms'
    largest, for the contraction products, and one more than it for alpha's.
    """

    d: int
    width: int
    forms: tuple[Packed, ...]


def pack_forms(system: RecursionSystem) -> PackedForms:
    reduced = reduced_ratio_form(system)
    degree = max((sum(exps) for form in reduced for exps in form._terms), default=0)
    width = _field_width(max(2 * degree, degree + 1))
    return PackedForms(system.d, width,
                       tuple(_pack(form, system.d, width) for form in reduced))


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


def _expansion_certificate(name: str, packed: PackedForms, numerators,
                           min_gap_degree: int, term_budget: int) -> CertificateReport:
    """Expand each (label, packed numerator) in turn and FAIL on the
    grlex-first term with a negative coefficient or gap-degree <
    min_gap_degree.

    term_count sums the expansions through the failing numerator.  The
    numerators may come from a generator, so only one is held at a time; a
    CapExceeded from it or from an expansion reports NOT ATTEMPTED.  Only
    the failing terms are unpacked, to order them.
    """
    d, width = packed.d, packed.width
    top, mask = (d + 1) * width, (1 << width) - 1
    total_terms = 0
    try:
        for label, numerator in numerators:
            expanded = _expand(numerator, d, width, term_budget)
            total_terms += len(expanded)
            failing = [(key, coeff) for key, coeff in expanded.items()
                       if coeff < 0 or (key >> top) - (key & mask) < min_gap_degree]
            if failing:
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
    # the failing term terms() would reach first
    exps, coeff = max(((_unpack_key(key, d, width), coeff) for key, coeff in failing),
                      key=lambda term: _grlex_key(term[0]))
    offending = serialize(Polynomial(gap_varset(d), {exps: coeff}))
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
    term_budget: int = DEFAULT_TERM_BUDGET, packed: PackedForms | None = None,
) -> CertificateReport:
    """r_d grows every stage: R_d - R_{d+1} >= 0 coefficientwise in (w, gaps)."""
    packed = packed or pack_forms(system or generate(d))
    numerator = dict(packed.forms[d])
    for key, coeff in packed.forms[d + 1].items():
        numerator[key] = numerator.get(key, 0) - coeff
    return _expansion_certificate(
        "omega-ascending", packed, [("", _drop_zeros(numerator))], 1, term_budget
    )


def alpha_descending_certificate(
    d: int, system: RecursionSystem | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET, packed: PackedForms | None = None,
) -> CertificateReport:
    """r_0 shrinks every stage: r_0 R_1 - w R_0 >= 0 coefficientwise.

    r_0(n) - r_0(n+1) equals that numerator over the positive R_1, so
    nonnegative coefficients prove the descent.
    """
    packed = packed or pack_forms(system or generate(d))
    width = packed.width
    # the monomials r_0 and w = r_d: total degree 1 on top, then the field
    r0 = 1 << (d + 1) * width | 1 << d * width
    w = 1 << (d + 1) * width | 1
    numerator: Packed = {}
    _add_product(numerator, {r0: 1}, packed.forms[1], 1, d, width)
    _add_product(numerator, {w: 1}, packed.forms[0], -1, d, width)
    return _expansion_certificate(
        "alpha-descending", packed, [("", _drop_zeros(numerator))], 1, term_budget
    )


def quadratic_contraction_certificate(
    d: int, system: RecursionSystem | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET, packed: PackedForms | None = None,
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
    packed = packed or pack_forms(system or generate(d))
    forms, width = packed.forms, packed.width

    def numerators():
        for j in range(d):
            low, mid, high = forms[j], forms[j + 1], forms[j + 2]
            raw = len(low) * len(high) + len(mid) ** 2
            if raw > term_budget:
                raise CapExceeded(
                    f"pair {j} products would pass {raw} raw terms, above the "
                    f"budget of {term_budget}; raise it with --term-budget"
                )
            numerator: Packed = {}
            _add_product(numerator, low, high, 1, d, width)
            _add_product(numerator, mid, mid, -1, d, width)
            yield f"pair {j}: ", _drop_zeros(numerator)

    return _expansion_certificate(
        "quadratic-contraction", packed, numerators(), 2, term_budget
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
    packed = pack_forms(system)
    return [CERTIFICATES[name](d, system, term_budget, packed=packed) for name in names]
