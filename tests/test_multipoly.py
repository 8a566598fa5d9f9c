"""Polynomial substrate: arithmetic, substitution, serialization."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer.errors import PolynomialParseError, UnboundVariableError
from hanoi_dimer.multipoly import (
    Polynomial,
    evaluate_int,
    parse_polynomial,
    serialize,
    serialize_many,
    substitute,
)

from .helpers import serialize_by_terms

FGHTS = ("f", "g", "h", "t", "s")


def P(text: str, varset=FGHTS) -> Polynomial:
    return parse_polynomial(text, varset)


# -- hypothesis strategies ---------------------------------------------------

VARSETS = [("x",), ("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")]


@st.composite
def polynomials(draw, varset=None):
    if varset is None:
        varset = draw(st.sampled_from(VARSETS))
    nv = len(varset)
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 6)) for _ in range(nv))
        if sum(exps) > 6:
            continue
        coeff = draw(st.integers(-(10**6), 10**6))
        terms[exps] = coeff
    return Polynomial(varset, terms)


def polynomial_pairs():
    return st.sampled_from(VARSETS).flatmap(
        lambda vs: st.tuples(polynomials(varset=vs), polynomials(varset=vs))
    )


def polynomial_triples():
    return st.sampled_from(VARSETS).flatmap(
        lambda vs: st.tuples(
            polynomials(varset=vs), polynomials(varset=vs), polynomials(varset=vs)
        )
    )


# -- add ---------------------------------------------------------------------


def test_additive_inverse_cancels_to_zero():
    f = Polynomial.variable(FGHTS, "f")
    assert (f + (-f)).is_zero()
    assert serialize(f + (-f)) == "0"


def test_like_terms_collect():
    assert P("f + g") + P("g") == P("f + 2*g")


def test_mixed_count_assembly_matches_stored_expansion():
    # f+3g+3h+t assembled by repeated addition
    built = Polynomial.zero(FGHTS)
    for text in ("f", "3*g", "3*h", "t"):
        built = built + P(text)
    assert built == P("1*f + 3*g + 3*h + 1*t")


# -- mul ---------------------------------------------------------------------


def test_binomial_square():
    one_plus_a = parse_polynomial("1 + a", ("a",))
    assert serialize(one_plus_a * one_plus_a) == "1*a^2 + 2*a + 1"


def test_edge_factor_sixth_power_coefficients():
    # (1+2a+2a^2)^6: the per-edge factor of the all-dimer recursion
    q = parse_polynomial("1 + 2*a + 2*a^2", ("a",))
    p = q**6
    assert p.coefficient({"a": 0}) == 1
    assert p.coefficient({"a": 1}) == 12
    assert p.coefficient({"a": 2}) == 72
    assert p.coefficient({"a": 3}) == 280
    assert p.coefficient({"a": 12}) == 64


def test_fourth_power_multinomial_spot_coefficients():
    # independent oracle: term-by-term convolution over the four factors
    base = {"f": 1, "g": 3, "h": 3, "t": 1}
    counts: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(base, repeat=4):
        exps = tuple(combo.count(v) for v in FGHTS)
        weight = 1
        for v in combo:
            weight *= base[v]
        counts[exps] = counts.get(exps, 0) + weight
    expected_f4 = counts[(4, 0, 0, 0, 0)]
    expected_f3g = counts[(3, 1, 0, 0, 0)]
    assert expected_f4 == 1 and expected_f3g == 12  # frozen from the oracle

    p = P("f + 3*g + 3*h + t") ** 4
    assert p.coefficient({"f": 4}) == expected_f4
    assert p.coefficient({"f": 3, "g": 1}) == expected_f3g
    # full agreement, not just spots
    for exps, value in counts.items():
        assert p.coefficient(dict(zip(FGHTS, exps))) == value


# -- substitute ---------------------------------------------------------------


def test_substitute_identity_binding():
    p = P("f + 2*g*h")
    f = Polynomial.variable(FGHTS, "f")
    assert substitute(p, {"f": f}) == p


def test_substitute_carries_unbound_variables():
    p = P("f*g + t")
    q = substitute(p, {"f": P("h + s")})
    assert q == P("g*h + g*s + t")


def test_substitute_into_fresh_variables():
    p = parse_polynomial("u^2 + u", ("u",))
    q = substitute(p, {"u": parse_polynomial("a + b", ("a", "b"))})
    assert serialize(q) == "1*a^2 + 2*a*b + 1*b^2 + 1*a + 1*b"


# -- evaluate ------------------------------------------------------------------


def test_evaluate_constant_term_at_zero():
    p = P("7 + f*g")
    assert evaluate_int(p, dict.fromkeys(FGHTS, 0)) == 7


def test_evaluate_unbound_variable_is_named():
    p = P("f + s")
    with pytest.raises(UnboundVariableError) as err:
        evaluate_int(p, {"f": 1, "g": 0, "h": 0, "t": 0})
    assert "s" in str(err.value)


# -- serialize / parse ---------------------------------------------------------


def test_serialize_zero():
    assert serialize(Polynomial.zero(FGHTS)) == "0"
    assert parse_polynomial("0", FGHTS).is_zero()


def test_serialize_fixed_formatting_rule():
    assert serialize(P("f + 2*g")) == "1*f + 2*g"


def test_serialize_orders_by_graded_lex():
    p = P("g^2 + f + 3*f*g + s")
    assert serialize(p) == "3*f*g + 1*g^2 + 1*f + 1*s"


def test_serialize_negative_coefficients_roundtrip():
    p = P("f") - P("3*g*h^2") - 5
    text = serialize(p)
    assert text == "-3*g*h^2 + 1*f - 5"
    assert parse_polynomial(text, FGHTS) == p


def test_parse_error_is_position_tagged():
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("1*f + 2*", FGHTS)
    assert err.value.position == 8
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1*f + 2*q", FGHTS)  # q not declared


# -- algebraic properties -------------------------------------------------------


@given(polynomial_pairs())
def test_addition_commutes(pq):
    p, q = pq
    assert p + q == q + p


@given(polynomial_triples())
def test_addition_associates(pqr):
    p, q, r = pqr
    assert (p + q) + r == p + (q + r)


@given(polynomial_pairs())
def test_multiplication_commutes(pq):
    p, q = pq
    assert p * q == q * p


@settings(max_examples=50)
@given(polynomial_triples())
def test_multiplication_associates(pqr):
    p, q, r = pqr
    assert (p * q) * r == p * (q * r)


@settings(max_examples=50)
@given(polynomial_triples())
def test_distributivity(pqr):
    p, q, r = pqr
    assert p * (q + r) == p * q + p * r


@given(polynomials())
def test_substitute_identity_bindings_is_identity(p):
    bindings = {v: Polynomial.variable(p.varset, v) for v in p.varset}
    assert substitute(p, bindings) == p


@given(polynomial_pairs(), st.data())
def test_evaluation_is_a_ring_homomorphism(pq, data):
    p, q = pq
    point = {v: data.draw(st.integers(-50, 50)) for v in p.varset}
    assert evaluate_int(p * q, point) == evaluate_int(p, point) * evaluate_int(q, point)
    assert evaluate_int(p + q, point) == evaluate_int(p, point) + evaluate_int(q, point)


@given(polynomials())
def test_serialize_parse_roundtrip(p):
    text = serialize(p)
    back = parse_polynomial(text, p.varset)
    assert back == p
    assert serialize(back) == text


@given(polynomial_pairs())
def test_equality_iff_serializations_identical(pq):
    p, q = pq
    assert (p == q) == (serialize(p) == serialize(q))


# negative, unit and big coefficients; 0 drops out of a Polynomial
COEFFICIENTS = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**6), 10**6),
                         st.integers(-(2**200), 2**200))


@st.composite
def shared_varset_polynomials(draw):
    """One to four polynomials over one varset, the zero polynomial and
    constant terms among them."""
    varset = draw(st.sampled_from(VARSETS))
    monomials = st.tuples(*[st.integers(0, 4)] * len(varset))
    return [Polynomial(varset, draw(st.dictionaries(monomials, COEFFICIENTS, max_size=8)))
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300)
@given(shared_varset_polynomials())
def test_serialize_many_matches_the_per_term_reference(polys):
    want = [serialize_by_terms(p) for p in polys]
    assert serialize_many(polys) == want
    assert [serialize(p) for p in polys] == want


def test_serialize_many_writes_zero_constants_signs_and_big_coefficients():
    big = 3**200
    polys = [Polynomial.zero(FGHTS), Polynomial.constant(FGHTS, -7),
             P("-f^2 + 3*g - 1"), P(f"{big}*f^2*s - 1*g + 1")]
    want = ["0", "-7", "-1*f^2 + 3*g - 1", f"{big}*f^2*s - 1*g + 1"]
    assert serialize_many(polys) == want
    assert [serialize_by_terms(p) for p in polys] == want


def test_serialize_many_needs_one_varset():
    assert serialize_many([]) == []
    with pytest.raises(ValueError, match="one varset"):
        serialize_many([P("f"), Polynomial.variable(("x",), "x")])
