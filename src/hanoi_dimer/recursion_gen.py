"""Mechanical generation of the boundary-class recursion system for any d.

State basis: c_k(n) counts matchings of TH_d(n) in which a chosen set of k
corners is dimer-covered and the remaining d+1-k corners are monomer-covered
(any choice of the k corners gives the same count, which is asserted against
the brute-force oracle in the tests).

generate runs the copy-transfer scan of the scan module, whose mixed counts
N(a, b) are here expanded linearly in the class basis,
N(a, b) = sum_j C(d+1-a-b, j) c_{b+j}, over term dicts (TERM_RING) whose
coefficients are polynomials in t and c_1 packed into one integer each
(Kronecker substitution), keyed by the exponents of c_2..c_{d+1} (c_0's is
implied by the degree).  The system is written to and read from a cache
file in its canonical text (save_system, load_system).
"""

from __future__ import annotations

import re
from contextlib import suppress
from math import comb
from pathlib import Path
from typing import NamedTuple

from .errors import CacheCorruption, HanoiDimerError, IntegrityError
from .multipoly import Polynomial, parse_polynomial, serialize_many
from .scan import Ring, check_generation_work, transfer_scan


def class_varset(d: int) -> tuple[str, ...]:
    return tuple(f"c{k}" for k in range(d + 2))


class RecursionSystem(NamedTuple):
    """The d+2 class polynomials plus the unconstrained-total polynomial.

    class_polys[k] maps a stage-n class vector to c_k(n+1); m_poly maps it
    to the total matching count at stage n+1.  All polynomials are
    homogeneous of degree d+1 with nonnegative coefficients over c0..c_{d+1}.
    """

    d: int
    varset: tuple[str, ...]
    class_polys: tuple[Polynomial, ...]
    m_poly: Polynomial


# -- generation ------------------------------------------------------------------


def _terms_muladd(acc, terms, factor):
    # terms: packed monomial -> coefficient; factor: (packed bump, weight)
    # pairs.  A fresh acc takes the first pair at C speed, a copy for a
    # weight of 1 with no bump; each bump shifts every key apart, so the
    # comprehension meets no key twice.
    pairs = iter(factor)
    if acc is None:
        bump, weight = next(pairs)
        if bump == 0 and weight == 1:
            acc = dict(terms)
        else:
            acc = {mono + bump: coeff * weight for mono, coeff in terms.items()}
    get = acc.get
    for bump, weight in pairs:
        for mono, coeff in terms.items():
            key = mono + bump
            acc[key] = get(key, 0) + coeff * weight
    return acc


# term dicts over packed monomials: a copy's factor is a linear form
TERM_RING = Ring(unit={0: 1}, scalar=lambda w: ((0, w),), muladd=_terms_muladd)


def generate(d: int) -> RecursionSystem:
    """Generate and validate the full recursion system for dimension d.

    One packed transfer scan (_scan_system) yields every class polynomial
    and M.  Refuses with CapExceeded, before any scan, when
    check_generation_work does.
    """
    check_generation_work(d)
    return _scan_system(d, _closed_form_totals(d)[1].bit_length())


def _closed_form_totals(d: int) -> tuple[int, int]:
    # coefficient totals, the values at c = 1 where N(a, b) = 2^(d+1-a-b): a
    # class polynomial sums prod_i 2^(d - deg_S(i)) = 4^E / 4^|S| over the
    # subsets S of the E connector edges, 4^E (1 + 1/4)^E = 5^E; in M each
    # copy's global corner is free, one more factor 2 per copy
    class_total = 5 ** (d * (d + 1) // 2)
    return class_total, class_total << (d + 1)


def _scan_system(d: int, width: int) -> RecursionSystem:
    """The term-dict scan with coefficients packed width bits a slot.

    A key holds the exponents of c_2..c_{d+1}; c_0's exponent is implied as
    d+1 minus the others, and c_1's is a second packing level of the
    coefficient: slot (t^k, c_1^e), at bit width*(k + (d+2)*e), holds the
    coefficient of t^k c_1^e, so one integer multiply-add acts on a whole
    polynomial in t and c_1.  Every coefficient is a nonnegative integer,
    and each intermediate coefficient, a state's or a bucket's, is at most
    some final one: it is multiplied by a completion (the later factors and
    choice weights) whose terms all have nonnegative coefficients and which
    has a term with a coefficient of at least 1.  The final coefficients
    sum to M's closed-form total m_total, so with
    width = m_total.bit_length() no slot ever carries into the next.

    A narrower width does carry, within a c_1 group or from one group into
    the next.  The packed integer is still the exact value of the
    polynomial at t = 2^width, c_1 = 2^(width*(d+2)), so each carry lowers
    its digit sum in base 2^width by 2^width - 1, and M's coefficient
    total, the sum of the digits, then misses m_total (a digit past the top
    group is refused at once; one in a c_1 power above what the key leaves
    c_0 and c_1 still counts toward the total, and then fails the shape
    check): every narrowed width raises IntegrityError and returns nothing.
    """
    if width < 1:
        raise IntegrityError(f"a t-slot of {width} bits holds no coefficient")
    class_total, m_total = _closed_form_totals(d)
    varset = class_varset(d)
    slots = d + 2  # t^0..t^(d+1): the k dimer-forced corners of class k
    group = width * slots  # the t-slots of one power of c_1
    bits = (d + 1).bit_length()  # one exponent field per c_2..c_{d+1}
    # F_deg's weight for c_j is C(f, j-1) t + C(f, j), where f = d - deg
    # corners stay free: N(deg, 1) gives the t slot, N(deg+1, 0) the t^0
    # slot.  c_0's weight 1 and c_1's t + f share the key bump 0.
    factors = [
        ((0, 1 + (((1 << width) + d - deg) << group)),
         *((1 << bits * (j - 2),
            (comb(d - deg, j - 1) << width) + comb(d - deg, j))
           for j in range(2, d - deg + 2)))
        for deg in range(d + 1)
    ]
    packed_terms = transfer_scan(d, factors, TERM_RING)

    # one pass over the packed terms: exponent fields, c_1 groups and
    # t-slots are split by precomputed shifts, and only nonzero
    # coefficients are stored
    exp_mask, slot_mask, group_mask = (1 << bits) - 1, (1 << width) - 1, (1 << group) - 1
    exp_shifts = [bits * i for i in range(d)]
    # every k-subset of dimer-forced corners gives the same P_k, so slot k
    # holds C(d+1, k) P_k
    slot_plan = [(k, width * k, comb(d + 1, k), {}) for k in range(slots)]
    top = group * slots
    m_terms = {}
    # the digit sum of slots in a c_1 power above the key's budget: counted
    # in M's total, then refused by the shape check
    misplaced = 0
    # k -> the first t^k coefficient its choices do not divide; raised after
    # M's checks, as M's total is what names a carry from a narrowed slot
    indivisible = {}
    for key, packed in packed_terms.items():
        if not packed:
            continue
        if packed >> top:
            raise IntegrityError(f"packed coefficients overflow {slots} c1 powers "
                                 f"of {slots} t-slots of {width} bits")
        tail = tuple([key >> shift & exp_mask for shift in exp_shifts])
        budget = d + 1 - sum(tail)  # what c_0 and c_1 share
        above = packed >> group * max(budget + 1, 0)
        while above:
            misplaced += above & slot_mask
            above >>= width
        for e in range(budget + 1):
            part = packed >> group * e & group_mask
            if not part:
                continue
            exps = (budget - e, e, *tail)
            total = 0
            for k, shift, choices, terms in slot_plan:
                coeff = part >> shift & slot_mask
                if coeff:
                    total += coeff
                    terms[exps], rem = divmod(coeff, choices)
                    if rem:
                        indivisible.setdefault(k, coeff)
            m_terms[exps] = total

    m_sum = sum(m_terms.values()) + misplaced
    if m_sum != m_total:
        raise IntegrityError(
            f"total polynomial coefficient sum {m_sum} != closed-form total {m_total}")
    if misplaced or min(m_terms.values(), default=0) < 0:
        raise IntegrityError("total polynomial failed shape checks")
    if indivisible:
        k = min(indivisible)
        raise IntegrityError(
            f"t^{k} coefficient {indivisible[k]} is not divisible by the "
            f"C({d + 1},{k}) = {comb(d + 1, k)} corner choices")
    for k, _, _, terms in slot_plan:
        if min(terms.values(), default=0) < 0:
            raise IntegrityError(f"class polynomial c{k} has a negative coefficient")
        total = sum(terms.values())
        if total != class_total:
            raise IntegrityError(
                f"class polynomial c{k} coefficient total {total} "
                f"!= closed-form total {class_total}")
    class_polys = tuple(Polynomial._raw(varset, terms) for _, _, _, terms in slot_plan)
    m_poly = Polynomial._raw(varset, m_terms)
    return RecursionSystem(d=d, varset=varset, class_polys=class_polys, m_poly=m_poly)


# -- cache file --------------------------------------------------------------


def cache_path(cache_dir: Path, d: int) -> Path:
    return Path(cache_dir) / f"recursions_d{d}.txt"


def line_labels(d: int) -> list[str]:
    """The labels of the cache file's polynomial lines, in order: the class
    polynomials, then M."""
    return [f"c{k}" for k in range(d + 2)] + ["M"]


def _file_text(d: int, texts) -> str:
    """The cache file of a d-system: a header, then its polynomials'
    canonical texts, in line_labels order, each on a labelled line."""
    lines = [f"# d={d} basis=c0..c{d + 1}"]
    lines += [f"{label}: {text}" for label, text in zip(line_labels(d), texts)]
    return "\n".join(lines) + "\n"


def save_system(sys: RecursionSystem, path: Path) -> None:
    """Write the bit-exact canonical cache file.

    The text goes to a temporary file beside the target, which then
    replaces it, so an interrupted write leaves the previous file whole.
    A write that fails (an OSError: the target is a directory, the
    directory is read-only, the disk is full) removes the temporary file
    and raises HanoiDimerError naming the path.
    """
    import os

    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = _file_text(sys.d, serialize_many(sys.class_polys + (sys.m_poly,)))
        tmp.write_text(text, encoding="utf-8", newline="\n")
        tmp.replace(path)
    except BaseException as err:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise HanoiDimerError(
                f"cannot write cache file {path}: {err.strerror or err}") from err
        raise


def load_system(path: Path, d: int) -> RecursionSystem:
    """The d-system a cache file holds; CacheCorruption on any defect.

    The file must be, byte for byte, the text save_system writes for the
    system its lines parse to, and that system must pass the shape checks.
    Only its final newline may be missing: a file cut after a term still
    holds a system, which verify refuses as another one.  A path that
    cannot be read at all (an OSError: a directory, no permission) is no
    defect of the text, and raises HanoiDimerError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise HanoiDimerError(
            f"cannot read cache file {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise CacheCorruption(f"cannot read cache file {path}: {err}") from err
    held = re.match(r"# d=(\d+) ", text)
    if held and int(held[1]) != d:
        raise CacheCorruption(
            f"cache file {path} holds the d={held[1]} system, not d={d}")
    labels = line_labels(d)
    lines = text.split("\n")[1:len(labels) + 1]
    if len(lines) != len(labels):
        raise CacheCorruption(
            f"cache file {path} has fewer than {len(labels)} polynomial lines")
    varset = class_varset(d)
    polys, texts = [], []
    for label, line in zip(labels, lines):
        texts.append(line.partition(": ")[2])
        try:
            polys.append(parse_polynomial(texts[-1], varset))
        except ValueError as err:
            raise CacheCorruption(f"cache file {path}, line {label}: {err}") from err
    # parse_polynomial takes only the canonical text of what it returns, so
    # the texts are the system's and need no second serialization
    canonical = _file_text(d, texts)
    if text != canonical and text != canonical[:-1]:
        raise CacheCorruption(f"cache file {path} is not the canonical text of "
                              "the system it holds")
    for poly in polys:
        if not poly.is_homogeneous(d + 1) or poly.min_coefficient() < 0:
            raise CacheCorruption(f"cache file {path}: polynomial failed validation")
    return RecursionSystem(d=d, varset=varset,
                           class_polys=tuple(polys[:-1]), m_poly=polys[-1])
