"""Monotonicity and contraction certificates, with printed spot blocks."""

from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import appendix_check
from hanoi_dimer.appendix_check import (
    alpha_descending_certificate,
    gap_degree,
    gap_expansion,
    gap_varset,
    omega_ascending_certificate,
    quadratic_contraction_certificate,
    run_certificates,
    w_power_coefficient,
)
from hanoi_dimer.errors import CapExceeded, IntegrityError
from hanoi_dimer.multipoly import Polynomial, serialize
from hanoi_dimer.recursion_gen import ratio_varset, reduced_ratio_form

from .helpers import REPO_DIR, gap_expansion_by_substitution, parse_classic, run_python

GAPS_D3 = ("gap1", "gap2", "gap3")


def classic_gaps(text: str) -> Polynomial:
    # classic a, b, c stand for the consecutive ratio gaps
    return parse_classic(text, "abc", GAPS_D3)


@pytest.fixture(scope="module")
def reduced_d3(systems):
    return reduced_ratio_form(systems(3))


@pytest.fixture(scope="module")
def ascent_expansion_d3(reduced_d3):
    return gap_expansion(reduced_d3[3] - reduced_d3[4], 3)


# -- omega ascent -----------------------------------------------------------------


def test_omega_certificate_passes_d3(systems):
    report = omega_ascending_certificate(3, systems(3))
    assert report.ok
    assert report.offending_monomial is None


def test_ascent_expansion_w11_block(ascent_expansion_d3):
    block = w_power_coefficient(ascent_expansion_d3, 11)
    assert block == classic_gaps("64a+64b+64c")


def test_ascent_expansion_w10_block(ascent_expansion_d3):
    block = w_power_coefficient(ascent_expansion_d3, 10)
    assert block == classic_gaps(
        "256ab+768bc+384b+512c^2+384c+256b^2+288a+512ac"
    )


def test_ascent_expansion_w1_block(ascent_expansion_d3):
    block = w_power_coefficient(ascent_expansion_d3, 1)
    assert block == classic_gaps(
        "18b^2c^3+30b^2c^2+15ac^3+12ac^2+18bc^4+12abc+68c^2+33c+36bc+6c^5"
        "+b^2+30c^4+3b+75bc^2+12abc^3+2ac+ab+60bc^3+6ab^2c^2+15abc^2"
        "+6b^3c^2+63c^3+6ac^4+12b^2c"
    )


def test_ascent_expansion_constant_block(ascent_expansion_d3):
    block = w_power_coefficient(ascent_expansion_d3, 0)
    assert block == classic_gaps("2bc^2+ac^2+b^2c+3c+3bc+abc+3c^2+c^3")


def test_ascent_expansion_tops_out_at_w11(ascent_expansion_d3):
    assert max(exps[0] for exps, _ in ascent_expansion_d3.terms()) == 11


def test_ascent_vanishes_at_zero_gaps(ascent_expansion_d3):
    # equal ratios are a fixed point
    from hanoi_dimer.multipoly import evaluate_int

    point = {"w": 7, "gap1": 0, "gap2": 0, "gap3": 0}
    assert evaluate_int(ascent_expansion_d3, point) == 0


# -- alpha descent -----------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_alpha_certificate_passes(systems, d):
    report = alpha_descending_certificate(d, systems(d))
    assert report.ok


def test_alpha_numerator_numeric_validation(systems, reduced_d3):
    """Evaluate the expanded certificate against the direct numerator at
    random rational points with small positive gaps."""
    rvars = ratio_varset(3)
    r0 = Polynomial.variable(rvars, "r0")
    r3 = Polynomial.variable(rvars, "r3")
    numerator = r0 * reduced_d3[1] - r3 * reduced_d3[0]
    expanded = gap_expansion(numerator, 3)

    def eval_fraction(poly, point):
        total = Fraction(0)
        for exps, coeff in poly.terms():
            term = Fraction(coeff)
            for name, e in zip(poly.varset, exps):
                term *= point[name] ** e
            total += term
        return total

    rng = random.Random(20240811)
    for _ in range(100):
        w = Fraction(rng.randint(1, 999), 1000)
        gaps = [Fraction(rng.randint(0, 50), 10000) for _ in range(3)]
        gap_point = {"w": w, "gap1": gaps[0], "gap2": gaps[1], "gap3": gaps[2]}
        r_point = {
            "r0": w + gaps[0] + gaps[1] + gaps[2],
            "r1": w + gaps[1] + gaps[2],
            "r2": w + gaps[2],
            "r3": w,
        }
        direct = eval_fraction(numerator, r_point)
        via_gaps = eval_fraction(expanded, gap_point)
        assert direct == via_gaps
        assert via_gaps >= 0


# -- contraction --------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_contraction_certificate_passes(systems, d):
    report = quadratic_contraction_certificate(d, systems(d))
    assert report.ok
    assert report.offending_monomial is None


@pytest.fixture(scope="module")
def contraction_pair0_d3(reduced_d3):
    numerator = reduced_d3[0] * reduced_d3[2] - reduced_d3[1] ** 2
    return gap_expansion(numerator, 3)


def test_contraction_leading_term(contraction_pair0_d3):
    # highest w-power block of R0 R2 - R1^2
    assert max(exps[0] for exps, _ in contraction_pair0_d3.terms()) == 20
    block = w_power_coefficient(contraction_pair0_d3, 20)
    assert serialize(block) == "1024*gap1^2"


def test_contraction_w19_block(contraction_pair0_d3):
    block = w_power_coefficient(contraction_pair0_d3, 19)
    assert block == classic_gaps("4096a^3+8192a^2+10240a^2b+18432a^2c+2048ab")


def test_contraction_no_low_gap_degree_terms(contraction_pair0_d3):
    for exps, _ in contraction_pair0_d3.terms():
        assert sum(exps[1:]) >= 2


def test_contraction_vanishes_at_zero_gaps(contraction_pair0_d3):
    from hanoi_dimer.multipoly import evaluate_int

    assert evaluate_int(
        contraction_pair0_d3, {"w": 3, "gap1": 0, "gap2": 0, "gap3": 0}
    ) == 0


# -- machinery -----------------------------------------------------------------------


def test_gap_varset_layout():
    assert gap_varset(3) == ("w", "gap1", "gap2", "gap3")


def certificate_numerator(system, name: str) -> Polynomial:
    """The ratio-basis numerator a certificate expands: omega, alpha or
    contraction<j> for the pair j."""
    d = system.d
    reduced = reduced_ratio_form(system)
    rvars = ratio_varset(d)
    if name == "omega":
        return reduced[d] - reduced[d + 1]
    if name == "alpha":
        return (Polynomial.variable(rvars, "r0") * reduced[1]
                - Polynomial.variable(rvars, f"r{d}") * reduced[0])
    j = int(name.removeprefix("contraction"))
    return reduced[j] * reduced[j + 2] - reduced[j + 1] ** 2


EXPANSION_CASES = [
    (d, name)
    for d in (2, 3)
    for name in ("omega", "alpha", *(f"contraction{j}" for j in range(d)))
] + [(4, "omega"), (4, "alpha")]


@pytest.mark.parametrize("d, name", EXPANSION_CASES)
def test_gap_expansion_matches_substitution(systems, d, name):
    numerator = certificate_numerator(systems(d), name)
    assert gap_expansion(numerator, d) == gap_expansion_by_substitution(numerator, d)


@st.composite
def ratio_polynomials(draw, filled=None):
    """(d, poly) over a random subset and order of r0..rd, so some r_j are
    absent entirely.  A filled draw has a term of total degree 2^b - 1,
    b = 1..4, and none above it: its degree fills every b-bit field."""
    d = draw(st.integers(2, 4))
    varset = tuple(draw(st.lists(st.sampled_from(ratio_varset(d)),
                                 min_size=1, unique=True)))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * len(varset)),
        st.integers(-50, 50), max_size=8,
    ))
    if filled is None:
        filled = draw(st.booleans())
    if filled:
        degree = 2 ** draw(st.integers(1, 4)) - 1
        slots = draw(st.lists(st.integers(0, len(varset) - 1),
                              min_size=degree, max_size=degree))
        top = tuple(slots.count(i) for i in range(len(varset)))
        terms = {exps: c for exps, c in terms.items() if sum(exps) < degree}
        terms[top] = draw(st.integers(-50, 50).filter(bool))
    return d, Polynomial(varset, terms)


# no deadline: the substitution reference alone takes over 200 ms on some
# degree-17 d=4 draws, which is no fault of gap_expansion
@settings(max_examples=80, deadline=None)
@given(ratio_polynomials())
def test_gap_expansion_matches_substitution_on_random_polynomials(case):
    d, poly = case
    assert gap_expansion(poly, d) == gap_expansion_by_substitution(poly, d)


def narrowed_by_one_bit(monkeypatch):
    real_width = appendix_check._field_width
    monkeypatch.setattr(appendix_check, "_field_width",
                        lambda degree: real_width(degree) - 1)


@settings(max_examples=40, deadline=None)
@given(ratio_polynomials(filled=True))
def test_a_field_one_bit_too_narrow_never_passes_silently(case):
    d, poly = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        narrowed_by_one_bit(monkeypatch)
        try:
            narrowed = gap_expansion(poly, d)
        except IntegrityError as err:
            assert "does not fit" in str(err)
            return
    assert narrowed != gap_expansion_by_substitution(poly, d)


@pytest.mark.parametrize("d", [2, 3])
def test_certificate_fields_one_bit_too_narrow_raise(monkeypatch, systems, d):
    narrowed_by_one_bit(monkeypatch)
    with pytest.raises(IntegrityError, match="does not fit"):
        run_certificates(d, "all", system=systems(d))


def test_packing_refuses_a_degree_the_field_cannot_hold():
    # r0^2 r1: degree 3 fills two-bit fields; degree 4 does not fit them
    rvars = ratio_varset(2)
    assert appendix_check._pack(Polynomial(rvars, {(2, 1, 0): 5}), 2, 2) == {
        0b11_10_01_00: 5}
    with pytest.raises(IntegrityError, match="degree-4 term does not fit 2-bit"):
        appendix_check._pack(Polynomial(rvars, {(2, 1, 1): 5}), 2, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_certificate_width_holds_twice_the_largest_form_degree(systems, d):
    packed = appendix_check.pack_forms(systems(d))
    degree = max(sum(exps) for form in reduced_ratio_form(systems(d))
                 for exps, _ in form.terms())
    assert packed.width == (2 * degree).bit_length()


def test_gap_expansion_rejects_variable_outside_ratio_basis():
    poly = Polynomial(("r0", "x"), {(1, 1): 1})
    with pytest.raises(ValueError):
        gap_expansion(poly, 2)


def budget_message(outgrowth: int, budget: int) -> str:
    return (f"^gap expansion would pass {outgrowth} raw terms, above the budget "
            f"of {budget}; raise it with --term-budget$")


def test_gap_expansion_budget_boundary_at_first_outgrowth(reduced_d3):
    numerator = reduced_d3[0] * reduced_d3[2] - reduced_d3[1] ** 2
    first = sum(exps[0] + 1 for exps, _ in numerator.terms())
    with pytest.raises(CapExceeded, match=budget_message(first, first - 1)):
        gap_expansion(numerator, 3, first - 1)
    # at the budget the first pass runs; a later, larger outgrowth stops it
    with pytest.raises(CapExceeded) as err:
        gap_expansion(numerator, 3, first)
    later = int(re.search(r"would pass (\d+) raw terms", str(err.value)).group(1))
    assert later > first


def test_gap_expansion_budget_boundary_at_peak_outgrowth():
    # r0 r1^2: pass 0 emits r1^3 + gap1 r1^2 from 2 raw terms, pass 1 then
    # needs 4 + 3 = 7.  No pass leaves more terms than the outgrowth checked
    # before it, so at the peak outgrowth the whole expansion fits.
    poly = Polynomial(ratio_varset(2), {(1, 2, 0): 1})
    expected = Polynomial(gap_varset(2), {(3, 0, 0): 1, (2, 1, 0): 1,
                                          (2, 0, 1): 3, (1, 1, 1): 2,
                                          (1, 0, 2): 3, (0, 1, 2): 1,
                                          (0, 0, 3): 1})
    assert gap_expansion(poly, 2, 7) == expected
    assert gap_expansion_by_substitution(poly, 2) == expected
    with pytest.raises(CapExceeded, match=budget_message(7, 6)):
        gap_expansion(poly, 2, 6)
    with pytest.raises(CapExceeded, match=budget_message(7, 2)):
        gap_expansion(poly, 2, 2)
    with pytest.raises(CapExceeded, match=budget_message(2, 1)):
        gap_expansion(poly, 2, 1)


def test_gap_expansion_budget_reports_not_attempted(systems):
    reports = run_certificates(3, "contraction", term_budget=100,
                               system=systems(3))
    (report,) = reports
    assert not report.attempted
    assert report.passed is None
    assert not report.ok
    assert any("not attempted" in note for note in report.notes)


def test_contraction_budget_prices_each_numerator_before_its_products(systems,
                                                                     reduced_d3):
    # pair 0 of d=3: R_0 R_2 - R_1^2 multiplies out n_0 n_2 + n_1^2 raw terms
    raw = (reduced_d3[0].term_count() * reduced_d3[2].term_count()
           + reduced_d3[1].term_count() ** 2)
    (report,) = run_certificates(3, "contraction", raw - 1, systems(3))
    assert not report.attempted
    assert report.notes == (
        f"not attempted: pair 0 products would pass {raw} raw terms, above the "
        f"budget of {raw - 1}; raise it with --term-budget",)
    (report,) = run_certificates(3, "contraction", raw, systems(3))
    assert "pair 0 products" not in " ".join(report.notes)


def test_d6_contraction_is_refused_before_any_product(monkeypatch):
    # its pair-0 products alone would pass 12,273,625 raw terms
    def no_products(self, other):
        raise AssertionError("a product was built")

    monkeypatch.setattr(Polynomial, "__mul__", no_products)
    start = time.perf_counter()
    (report,) = run_certificates(6, "contraction")
    assert time.perf_counter() - start < 2
    assert not report.attempted
    assert report.notes == (
        "not attempted: pair 0 products would pass 12273625 raw terms, above the "
        "budget of 10000000; raise it with --term-budget",)


def test_run_certificates_selects(systems):
    names = [r.name for r in run_certificates(2, "all", system=systems(2))]
    assert names == ["omega-ascending", "alpha-descending", "quadratic-contraction"]
    (only,) = run_certificates(2, "omega", system=systems(2))
    assert only.name == "omega-ascending"
    with pytest.raises(ValueError):
        run_certificates(2, "bogus", system=systems(2))


def test_perfbench_tracer_wraps_the_certificates(tmp_path):
    # traced_cli raises at start-up if a name it wraps has moved
    spans_file = tmp_path / "spans.json"
    run = run_python(str(REPO_DIR / "perfbench" / "traced_cli.py"), str(spans_file),
                     "t", "--", "appendix-check", "--d", "2", "--which", "all")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "omega-ascending d=2: PASS (29 terms)",
        "alpha-descending d=2: PASS (54 terms)",
        "quadratic-contraction d=2: PASS (220 terms)",
    ]
    counts = {}
    for span in json.loads(spans_file.read_text(encoding="utf-8")):
        counts.setdefault(span["name"], {}).update(span["counts"])
    assert counts["appendix_check.omega_ascending_certificate"] == {
        "appendix_check.omega_terms": 29}
    assert counts["appendix_check.alpha_descending_certificate"] == {
        "appendix_check.alpha_terms": 54}
    assert counts["appendix_check.quadratic_contraction_certificate"] == {
        "appendix_check.contraction_terms": 220}
    assert "recursion_gen.generate" in counts


def test_certificates_imply_numeric_monotonicity(systems, trajectories):
    """The symbolic facts and the numeric stage data must tell one story."""
    from hanoi_dimer.evolve import check_contraction, ratios

    for d in (2, 3):
        numeric = check_contraction(ratios(trajectories(d, 4)))
        symbolic = run_certificates(d, "all", system=systems(d))
        assert numeric.ok and all(r.ok for r in symbolic)


# -- FAIL reports from the unsorted scans ----------------------------------------


def sorted_scan_report(expansions: list[Polynomial], contraction: bool):
    """(passed, offending, notes) as the scans gave them over sorted terms()."""
    for j, expanded in enumerate(expansions):
        for exps, coeff in expanded.terms():
            mono = serialize(Polynomial(expanded.varset, {exps: coeff}))
            if contraction:
                if coeff < 0:
                    return False, mono, (f"pair {j}: negative coefficient on {mono}",)
                if gap_degree(exps) < 2:
                    return False, mono, (f"pair {j}: monomial {mono} has gap-degree < 2",)
            elif coeff < 0:
                return False, mono, (f"negative coefficient on {mono}",)
            elif gap_degree(exps) == 0:
                return False, mono, (
                    f"gap-free monomial {mono}: no fixed point at equal ratios",)
    return True, None, None


def packed_gaps(expanded: Polynomial, d: int, width: int) -> dict[int, int]:
    """A gap-basis expansion as the packed dict the certificates expand to:
    gap1..gapd in the fields of r0..r_{d-1}, w in the field of r_d."""
    in_ratio_fields = Polynomial(ratio_varset(d), {exps[1:] + exps[:1]: coeff
                                                   for exps, coeff in expanded.terms()})
    return appendix_check._pack(in_ratio_fields, d, width)


def certificate_on(monkeypatch, system, expansions: list[Polynomial],
                   contraction: bool):
    # the d=3 certificates see the given expansions in place of their numerators'
    feed = iter(expansions)
    monkeypatch.setattr(appendix_check, "_expand",
                        lambda _numerator, d, width, _budget:
                        packed_gaps(next(feed), d, width))
    if contraction:
        return quadratic_contraction_certificate(3, system)
    return omega_ascending_certificate(3, system)


def gaps_poly(terms: dict[tuple[int, ...], int], d: int = 3) -> Polynomial:
    return Polynomial(gap_varset(d), terms)


FAILING_EXPANSIONS = {
    "negative coefficient": [gaps_poly({(2, 1, 0, 0): 3, (1, 0, 1, 1): -2,
                                        (0, 0, 0, 3): -1})],
    "gap-free monomial": [gaps_poly({(3, 0, 0, 0): 1, (0, 2, 0, 1): 5,
                                     (2, 1, 0, 0): 4})],
    "negative before gap-free": [gaps_poly({(1, 0, 0, 0): 2, (0, 0, 0, 1): -1})],
    "gap-free before negative": [gaps_poly({(2, 0, 0, 0): 2, (0, 1, 0, 0): -1})],
}


@pytest.mark.parametrize("case", sorted(FAILING_EXPANSIONS))
def test_nonnegativity_fail_reports_grlex_first_term(monkeypatch, systems, case):
    expansions = FAILING_EXPANSIONS[case]
    report = certificate_on(monkeypatch, systems(3), expansions, contraction=False)
    assert (report.passed, report.offending_monomial, report.notes) == \
        sorted_scan_report(expansions, contraction=False)
    assert not report.passed


def test_contraction_fail_reports_grlex_first_term_of_first_failing_pair(monkeypatch,
                                                                         systems):
    expansions = [gaps_poly({(4, 2, 0, 0): 1, (3, 1, 1, 0): 2}),
                  gaps_poly({(0, 0, 1, 1): 1, (2, 0, 1, 0): -3, (1, 0, 0, 1): 2,
                             (5, 0, 0, 0): 1}),
                  gaps_poly({(1, 1, 0, 0): 1})]
    report = certificate_on(monkeypatch, systems(3), expansions, contraction=True)
    assert (report.passed, report.offending_monomial, report.notes) == \
        sorted_scan_report(expansions, contraction=True)
    assert report.notes[0].startswith("pair 1:")
    assert report.term_count == 2 + 4


@pytest.mark.parametrize("pair", range(3))
def test_contraction_fails_on_one_negated_coefficient(monkeypatch, systems, pair):
    # the real d=3 expansions, with the sign of one term of gap-degree >= 2
    # flipped in the given pair: only the sign rule can catch it
    real_expansion = appendix_check._expand
    expansions = []
    negated = []

    def expand(numerator, d, width, term_budget):
        expanded = appendix_check._unpack(
            real_expansion(numerator, d, width, term_budget), d, width)
        if len(expansions) == pair:
            terms = dict(expanded.terms())
            exps = max(terms, key=gap_degree)
            terms[exps] = -terms[exps]
            negated.append(Polynomial(expanded.varset, {exps: terms[exps]}))
            expanded = Polynomial(expanded.varset, terms)
        expansions.append(expanded)
        return packed_gaps(expanded, d, width)

    monkeypatch.setattr(appendix_check, "_expand", expand)
    report = quadratic_contraction_certificate(3, systems(3))
    mono = serialize(negated[0])
    assert report.attempted and report.passed is False
    assert report.offending_monomial == mono
    assert report.notes == (f"pair {pair}: negative coefficient on {mono}",)
    assert len(expansions) == pair + 1
    assert report.term_count == sum(e.term_count() for e in expansions)


monomials_d3 = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(monomials_d3, st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=12), min_size=3, max_size=3),
       st.booleans())
def test_unsorted_scans_report_as_sorted_scans(systems, terms, contraction):
    expansions = [gaps_poly(t) for t in terms]
    if not contraction:
        expansions = expansions[:1]
    with pytest.MonkeyPatch.context() as monkeypatch:
        report = certificate_on(monkeypatch, systems(3), expansions, contraction)
    passed, offending, notes = sorted_scan_report(expansions, contraction)
    assert (report.passed, report.offending_monomial) == (passed, offending)
    if not passed:
        assert report.notes == notes
