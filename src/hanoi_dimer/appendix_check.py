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
significant and e_d = the w exponent least.  Each certificate takes the
generated system and packs only the reduced forms it reads, straight from
the class polynomials' exponent tuples: omega R_d and R_{d+1}, alpha R_0
and R_1, the contraction every form, each when a pair first reads it.  A
product of monomials is the sum of their keys.  The gap expansion is a
binomial Taylor shift, one ratio at a time: r_j = r_{j+1} + gap_{j+1}
turns r_j^e into sum_u C(e, u) gap_{j+1}^(e-u) r_{j+1}^u, which moves u
from field j to field j+1 of the key, so field j then holds the gap_{j+1}
exponent.  The shift and the products keep every term's total degree, and
no field exceeds it, so once the width holds the largest degree a
numerator can reach no field carries into the next; packing and every
product check that degree and raise IntegrityError where it does not fit.
The gap degree of a term is its total-degree field less its w field.  A
term budget on each pass's raw outgrowth, and on the raw terms of the
products that build a contraction numerator, aborts oversized runs ("not
attempted") rather than reporting partial results.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import DEFAULT_TERM_BUDGET, CapExceeded, IntegrityError
from .multipoly import Polynomial, _grlex_key, serialize
# bound here only as the name perfbench/traced_cli.py wraps at start-up
from .multipoly import substitute  # noqa: F401
from .recursion_gen import RecursionSystem, generate

Packed = dict[int, int]  # packed monomial key -> nonzero coefficient


def gap_varset(d: int) -> tuple[str, ...]:
    return ("w",) + tuple(f"gap{j}" for j in range(1, d + 1))


# -- packed monomial keys ------------------------------------------------------


def _field_width(max_degree: int) -> int:
    # every exponent field of a term holds at most its total degree
    return max(max_degree, 1).bit_length()


def _form_degree(system: RecursionSystem, k: int) -> int:
    """The largest total degree of R_k over r0..rd.

    c^e maps to r_j^(e_0 + ... + e_j) for j = 0..d, so its degree is
    sum_i (d+1-i) e_i, less the d+1-k powers of r_d that R_k drops.
    """
    d = system.d
    drop, weights = d + 1 - k, range(d + 1, 0, -1)
    return max((sum(map(mul, exps, weights)) - drop
                for exps in system.class_polys[k]._terms), default=0)


def _pack_form(system: RecursionSystem, k: int, width: int) -> Packed:
    """R_k, the ratio image of class polynomial c_k with r_d^(d+1-k) divided
    out, packed with `width`-bit fields straight from its exponent tuples.

    c^e maps to the monomial with r_j exponent e_0 + ... + e_j; on
    homogeneous polynomials that map is injective, so no two terms merge.
    IntegrityError if an image lacks the r_d power or a term's total degree
    does not fit the width.
    """
    d = system.d
    drop = d + 1 - k
    packed = {}
    for exps, coeff in system.class_polys[k]._terms.items():
        fields = list(accumulate(exps[:d + 1]))
        if fields[d] < drop:
            raise IntegrityError(f"ratio image of c{k} not divisible by r{d}^{drop}")
        fields[d] -= drop
        key = sum(fields)
        if key >> width:
            raise IntegrityError(
                f"a degree-{key} term does not fit {width}-bit exponent fields")
        for e in fields:
            key = key << width | e
        packed[key] = coeff
    return packed


def _unpack_key(key: int, d: int, width: int) -> tuple[int, ...]:
    # an expanded key's exponents in gap_varset order: w, then gap1..gapd
    mask = (1 << width) - 1
    return (key & mask,) + tuple(key >> (d - j) * width & mask for j in range(d))


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


def _expansion_certificate(name: str, d: int, width: int, numerators,
                           min_gap_degree: int, term_budget: int) -> CertificateReport:
    """Expand each (label, packed numerator) in turn and FAIL on the
    grlex-first term with a negative coefficient or gap-degree <
    min_gap_degree.

    term_count sums the expansions through the failing numerator.  The
    numerators may come from a generator, so only one is held at a time; a
    CapExceeded from it or from an expansion reports NOT ATTEMPTED.  Only
    the failing terms are unpacked, to order them.
    """
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
    # the failing term first in graded-lex order, largest first
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


def omega_ascending_certificate(system: RecursionSystem,
                                term_budget: int = DEFAULT_TERM_BUDGET
                                ) -> CertificateReport:
    """r_d grows every stage: R_d - R_{d+1} >= 0 coefficientwise in (w, gaps).

    Packs R_d and R_{d+1} only, at the width their larger degree needs.
    """
    d = system.d
    width = _field_width(max(_form_degree(system, d), _form_degree(system, d + 1)))
    numerator = _pack_form(system, d, width)
    for key, coeff in _pack_form(system, d + 1, width).items():
        numerator[key] = numerator.get(key, 0) - coeff
    return _expansion_certificate(
        "omega-ascending", d, width, [("", _drop_zeros(numerator))], 1, term_budget
    )


def alpha_descending_certificate(system: RecursionSystem,
                                 term_budget: int = DEFAULT_TERM_BUDGET
                                 ) -> CertificateReport:
    """r_0 shrinks every stage: r_0 R_1 - w R_0 >= 0 coefficientwise.

    r_0(n) - r_0(n+1) equals that numerator over the positive R_1, so
    nonnegative coefficients prove the descent.  Packs R_0 and R_1 only, at
    the width of one degree more than theirs.
    """
    d = system.d
    width = _field_width(max(_form_degree(system, 0), _form_degree(system, 1)) + 1)
    # the monomials r_0 and w = r_d: total degree 1 on top, then the field
    r0 = 1 << (d + 1) * width | 1 << d * width
    w = 1 << (d + 1) * width | 1
    numerator: Packed = {}
    _add_product(numerator, {r0: 1}, _pack_form(system, 1, width), 1, d, width)
    _add_product(numerator, {w: 1}, _pack_form(system, 0, width), -1, d, width)
    return _expansion_certificate(
        "alpha-descending", d, width, [("", _drop_zeros(numerator))], 1, term_budget
    )


def quadratic_contraction_certificate(system: RecursionSystem,
                                      term_budget: int = DEFAULT_TERM_BUDGET
                                      ) -> CertificateReport:
    """Adjacent ratio gaps contract quadratically, and stay ordered.

    For each pair j, the numerator of r_j(n+1) - r_{j+1}(n+1) is
    R_j R_{j+2} - R_{j+1}^2.  Nonnegative coefficients carry the chain
    r_j >= r_{j+1} to the next stage; every monomial carrying gap-degree >= 2
    is exactly what bounds the new gap by (old outer gap)^2 times positive
    factors.  Each numerator is priced before any of its forms is packed:
    its products pass n_j n_{j+2} + n_{j+1}^2 raw terms, where n_k is the
    term count of class polynomial c_k (R_k has as many, as the ratio map
    is injective), and over the term budget the certificate is not
    attempted.  A form is packed when a pair first reads it, at the width
    of twice the largest degree of all the forms.
    """
    d, polys = system.d, system.class_polys
    width = _field_width(2 * max(_form_degree(system, k) for k in range(d + 2)))
    forms: dict[int, Packed] = {}

    def form(k: int) -> Packed:
        if k not in forms:
            forms[k] = _pack_form(system, k, width)
        return forms[k]

    def numerators():
        for j in range(d):
            low, mid, high = (p.term_count() for p in polys[j:j + 3])
            raw = low * high + mid ** 2
            if raw > term_budget:
                raise CapExceeded(
                    f"pair {j} products would pass {raw} raw terms, above the "
                    f"budget of {term_budget}; raise it with --term-budget"
                )
            numerator: Packed = {}
            _add_product(numerator, form(j), form(j + 2), 1, d, width)
            _add_product(numerator, form(j + 1), form(j + 1), -1, d, width)
            yield f"pair {j}: ", _drop_zeros(numerator)

    return _expansion_certificate(
        "quadratic-contraction", d, width, numerators(), 2, term_budget
    )


CERTIFICATES = {
    "omega": omega_ascending_certificate,
    "alpha": alpha_descending_certificate,
    "contraction": quadratic_contraction_certificate,
}


def run_certificates(d: int, which: str = "all",
                     term_budget: int = DEFAULT_TERM_BUDGET,
                     system: RecursionSystem | None = None) -> list[CertificateReport]:
    """The chosen certificates on the d system, generated unless given."""
    if which == "all":
        names = list(CERTIFICATES)
    elif which in CERTIFICATES:
        names = [which]
    else:
        raise ValueError(f"unknown certificate {which!r}; "
                         f"pick from {', '.join(CERTIFICATES)} or all")
    system = system or generate(d)
    return [CERTIFICATES[name](system, term_budget) for name in names]
