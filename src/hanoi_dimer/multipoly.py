"""Sparse multivariate polynomials over arbitrary-precision integers.

A Polynomial owns an ordered variable set and a mapping from dense exponent
tuples (one entry per declared variable) to nonzero integer coefficients.
Everything downstream (recursion generation, ratio forms, the monotonicity
certificates) is built on the four operations here: add, multiply,
substitute, evaluate.

Canonical text form: terms sorted by graded-lexicographic order (total degree
first, then the exponent tuple against the declared variable order), largest
first.  Each term is ``coeff*var^exp*...`` with ``^1`` omitted and the
coefficient always written, e.g. ``1*f + 2*g``.  The zero polynomial is
``0``.  ``serialize_many`` writes polynomials over one varset in one pass;
``serialize`` is its one-polynomial case.  ``serialize`` and
``parse_polynomial`` are exact inverses on canonical forms, and two
polynomials over the same variable set are equal iff their serializations
are byte-identical.

Polynomials are immutable after construction; all operations are pure
functions returning new values, so instances are safe to share between
threads without locking.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from operator import add
from typing import Iterator

from .errors import PolynomialParseError, UnboundVariableError

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

Exponents = tuple[int, ...]


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.

    ``varset`` fixes both the exponent-tuple layout and the serialization
    order.  No zero coefficient is ever stored.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, varset: tuple[str, ...], terms: Mapping[Exponents, int]):
        varset = tuple(varset)
        for name in varset:
            if not _VAR_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(varset)) != len(varset):
            raise ValueError("duplicate variable in varset")
        nv = len(varset)
        clean: dict[Exponents, int] = {}
        for exps, coeff in terms.items():
            if len(exps) != nv:
                raise ValueError(f"exponent tuple {exps} does not match varset of size {nv}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[tuple(exps)] = int(coeff)
        self._vars = varset
        self._terms = clean

    @classmethod
    def _raw(cls, varset: tuple[str, ...], terms: dict[Exponents, int]) -> Polynomial:
        # internal fast path: caller guarantees canonical terms
        self = object.__new__(cls)
        self._vars = varset
        self._terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, varset: tuple[str, ...]) -> Polynomial:
        return cls(varset, {})

    @classmethod
    def constant(cls, varset: tuple[str, ...], value: int) -> Polynomial:
        return cls(varset, {(0,) * len(varset): value})

    @classmethod
    def variable(cls, varset: tuple[str, ...], name: str) -> Polynomial:
        varset = tuple(varset)
        if name not in varset:
            raise ValueError(f"variable {name!r} not in varset {varset}")
        exps = tuple(1 if v == name else 0 for v in varset)
        return cls(varset, {exps: 1})

    # -- inspection --------------------------------------------------------

    @property
    def varset(self) -> tuple[str, ...]:
        return self._vars

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Iterate (exponent tuple, coefficient) in graded-lex order."""
        for exps in sorted(self._terms, key=_grlex_key, reverse=True):
            yield exps, self._terms[exps]

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self._terms)

    def coefficient(self, exps: Mapping[str, int]) -> int:
        """Coefficient of the monomial with the given exponents (0 if absent)."""
        key = [0] * len(self._vars)
        for name, e in exps.items():
            key[self._vars.index(name)] = e
        return self._terms.get(tuple(key), 0)

    def coefficient_sum(self) -> int:
        """Value at the all-ones point."""
        return sum(self._terms.values())

    def min_coefficient(self) -> int:
        return min(self._terms.values(), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; identity hashing would mislead

    def __repr__(self) -> str:
        return f"Polynomial({self._vars!r}, {serialize(self)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(self._vars, other)
        a, b, varset = _aligned(self, other)
        out = dict(a)
        for exps, coeff in b.items():
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
        return Polynomial._raw(varset, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(self._vars, other)
        return self + (-other)

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            if other == 0:
                return Polynomial._raw(self._vars, {})
            return Polynomial._raw(self._vars,
                                   {e: c * other for e, c in self._terms.items()})
        a, b, varset = _aligned(self, other)
        if len(a) < len(b):
            a, b = b, a
        out: dict[Exponents, int] = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        # cancelled terms are dropped once, after every product is summed
        return Polynomial._raw(varset, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self._vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def with_varset(self, varset: tuple[str, ...]) -> Polynomial:
        """Re-layout onto a (super)set of variables, preserving names."""
        varset = tuple(varset)
        missing = set(self._vars) - set(varset)
        if missing:
            raise ValueError(f"target varset drops variables {sorted(missing)}")
        pos = [varset.index(v) for v in self._vars]
        nv = len(varset)
        out: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            key = [0] * nv
            for p, e in zip(pos, exps):
                key[p] = e
            out[tuple(key)] = coeff
        return Polynomial._raw(varset, out)


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _aligned(p: Polynomial, q: Polynomial) -> tuple[dict, dict, tuple[str, ...]]:
    """Bring two polynomials onto a shared varset (union, p's order first)."""
    if p._vars == q._vars:
        return p._terms, q._terms, p._vars
    varset = p._vars + tuple(v for v in q._vars if v not in p._vars)
    return p.with_varset(varset)._terms, q.with_varset(varset)._terms, varset


# -- module-level operations --------------------------------------------------


def substitute(p: Polynomial, bindings: Mapping[str, Polynomial]) -> Polynomial:
    """Simultaneous substitution of polynomials for variables.

    Unbound variables are carried through.  The result varset walks p's
    variable order, splicing in each binding's varset at first use, so the
    output layout is deterministic.
    """
    target: list[str] = []
    seen: set[str] = set()
    for name in p.varset:
        sources = bindings[name].varset if name in bindings else (name,)
        for v in sources:
            if v not in seen:
                seen.add(v)
                target.append(v)
    varset = tuple(target)

    values: dict[str, Polynomial] = {}
    for name in p.varset:
        base = bindings.get(name)
        if base is None:
            base = Polynomial.variable(varset, name)
        values[name] = base.with_varset(varset) if base.varset != varset else base

    # per-variable power cache; exponents repeat heavily in recursion systems
    powers: dict[tuple[str, int], Polynomial] = {}

    def power(name: str, e: int) -> Polynomial:
        got = powers.get((name, e))
        if got is None:
            got = values[name] ** e
            powers[(name, e)] = got
        return got

    acc: dict[Exponents, int] = {}
    one = Polynomial.constant(varset, 1)
    for exps, coeff in p._terms.items():
        prod = one
        for name, e in zip(p.varset, exps):
            if e:
                prod = prod * power(name, e)
        for key, c in prod._terms.items():
            total = acc.get(key, 0) + coeff * c
            if total:
                acc[key] = total
            else:
                del acc[key]
    return Polynomial._raw(varset, acc)


def evaluate_int(p: Polynomial, point: Mapping[str, int]) -> int:
    """Exact integer value of p at an all-integer point.

    Every variable of the varset must be bound; a missing one raises
    UnboundVariableError naming it.
    """
    for name in p.varset:
        if name not in point:
            raise UnboundVariableError(name)
    powers: dict[tuple[int, int], int] = {}

    def power(i: int, e: int) -> int:
        got = powers.get((i, e))
        if got is None:
            got = point[p.varset[i]] ** e
            powers[(i, e)] = got
        return got

    total = 0
    for exps, coeff in p._terms.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                term *= power(i, e)
        total += term
    return total


def serialize(p: Polynomial) -> str:
    """Canonical text form (see module docstring)."""
    return serialize_many((p,))[0]


def serialize_many(polys: Sequence[Polynomial]) -> list[str]:
    """Canonical text forms of polynomials that share one varset.

    The union of their monomials is sorted into graded-lex order once and
    each monomial's text is built once; every polynomial is then written by
    walking that order.
    """
    if not polys:
        return []
    varset = polys[0].varset
    if any(p.varset != varset for p in polys):
        raise ValueError("serialize_many needs polynomials over one varset")
    order = sorted(set().union(*(p._terms for p in polys)), key=_grlex_key, reverse=True)
    # each monomial as it follows its coefficient: "" for the constant term
    suffixes = ["".join(f"*{name}" if e == 1 else f"*{name}^{e}"
                        for name, e in zip(varset, exps) if e)
                for exps in order]
    texts = []
    for p in polys:
        text = "".join([f" + {coeff}{suffix}" if coeff > 0 else f" - {-coeff}{suffix}"
                        for coeff, suffix in zip(map(p._terms.get, order), suffixes)
                        if coeff is not None])
        # the first term drops its " + ", or keeps only the sign of " - "
        if not text:
            texts.append("0")
        elif text[1] == "+":
            texts.append(text[3:])
        else:
            texts.append("-" + text[3:])
    return texts


def parse_polynomial(text: str, varset: tuple[str, ...]) -> Polynomial:
    """Parse the canonical text form back into a Polynomial.

    Grammar: term (('+'|'-') term)*, term = ['-'] integer ['*' factor
    ('*' factor)*] | factor..., factor = var ['^' integer].  Whitespace is
    free between tokens.  Malformed input raises PolynomialParseError with
    the offending position.
    """
    varset = tuple(varset)
    index = {v: i for i, v in enumerate(varset)}
    nv = len(varset)
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolynomialParseError("expected integer", start)
        return int(text[start:pos])

    terms: dict[Exponents, int] = {}

    def read_term(sign: int) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise PolynomialParseError("expected term", pos)
        coeff = 1
        exps = [0] * nv
        saw_factor = False
        if text[pos].isdigit():
            coeff = read_int()
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                saw_factor = False
        while True:
            skip_ws()
            m = _VAR_RE.match(text, pos)
            if not m:
                if saw_factor:
                    break
                raise PolynomialParseError("expected variable", pos)
            name = m.group(0)
            if name not in index:
                raise PolynomialParseError(f"unknown variable {name!r}", pos)
            pos = m.end()
            e = 1
            if pos < n and text[pos] == "^":
                pos += 1
                e = read_int()
            exps[index[name]] += e
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                saw_factor = False
                continue
            break
        key = tuple(exps)
        total = terms.get(key, 0) + sign * coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)

    skip_ws()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    read_term(sign)
    while True:
        skip_ws()
        if pos >= n:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise PolynomialParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        read_term(sign)
    return Polynomial(varset, terms)
