"""Mechanical generation of the boundary-class recursion system for any d.

State basis: c_k(n) counts matchings of TH_d(n) in which a chosen set of k
corners is dimer-covered and the remaining d+1-k corners are monomer-covered
(any choice of the k corners gives the same count, which is asserted against
the brute-force oracle in the tests).

One composition step glues d+1 copies with C(d+1,2) vertex-disjoint
connector edges.  Summing over the subset S of connector edges contained in
the matching, each copy i contributes a mixed count N(a_i, b_i): its
deg_S(i) connector-covered corners are forced monomer inside the copy, its
global corner is forced dimer (b_i = 1) or monomer (a_i gains 1) depending
on the class being built, and the remaining corners are free.

A transfer scan over the copies performs that sum without materializing
the 2^C(d+1,2) subsets one by one.  Its state is the multiset of connector
degrees still pending for the copies not yet absorbed.  Every copy's global
corner is left free, so the copies stay interchangeable: the state keeps
the pending degrees sorted and states equal up to order are merged.

The corner classes ride along in a variable t.  A copy's factor is
F = N(deg+1, 0) + t N(deg, 1), its global corner monomer-forced or
dimer-forced (t).  By corner symmetry the scan then yields
sum_k C(d+1, k) t^k P_k over the class polynomials P_k, and since
N(a, 0) = N(a, 1) + N(a+1, 0) its value at t = 1 is the total M.

The scan runs over three rings.  evolve.step scans the integer mixed
counts of a stage's class vector in POINT_RING, where a value at copy i, a
degree-i t-polynomial, is held as its i+1 values at the first of the fixed
integer points 0, -1, 2, -2, 3, -3, ... (t_point; t = 1 is left out).
Before a copy's factor multiplies a value, the value gains one more point
by exact Lagrange extrapolation (extend_points), so the product is
pointwise: i+2 big multiplies where the coefficient product takes 2(i+1)
(Toom-Cook evaluation and interpolation; Brent & Zimmermann, Modern
Computer Arithmetic, 2010, section 1.3.3).  interpolate_points turns the
final d+2 values back into coefficients.  M comes from one more integer
scan with the plain factor N(deg, 0) (INT_RING); as t = 1 is no point, it
checks every point through the binomial sum of the class counts.
generate scans term dicts whose coefficients are t-polynomials packed into
one integer each (Kronecker substitution), with each mixed count expanded
linearly in the class basis, N(a, b) = sum_j C(d+1-a-b, j) c_{b+j}.
"""

from __future__ import annotations

import re
from contextlib import suppress
from fractions import Fraction
from functools import cache
from itertools import groupby, repeat
from math import comb, lcm
from operator import add, mul
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import CacheCorruption, CapExceeded, HanoiDimerError, IntegrityError
from .multipoly import Polynomial, parse_polynomial, serialize_many

# caps the scans' price from d alone: a stage step's point-weighted
# (state, choice) pairs (scan_pairs) admit d <= 12 (1,484,006) and refuse
# d = 13 (4,115,170); generation's packed coefficients (scan_terms) admit
# d <= 6 (604,845) and refuse d = 7 (4,567,478)
SCAN_WORK_CAP = 2_000_000


def class_varset(d: int) -> tuple[str, ...]:
    return tuple(f"c{k}" for k in range(d + 2))


def ratio_varset(d: int) -> tuple[str, ...]:
    return tuple(f"r{j}" for j in range(d + 1))


def corner_splits(d: int) -> tuple[tuple[int, int], ...]:
    """Every (a, b) a copy can take: a monomer-forced, b dimer-forced corners.

    b is 0 or 1, as a copy owns one global corner.
    """
    return tuple((a, b) for b in (0, 1) for a in range(d + 2 - b))


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


def mixed_count_expansion(d: int, forced_monomers: int, forced_dimers: int) -> Polynomial:
    """N(a, b) as a class-basis polynomial: sum_j C(d+1-a-b, j) c_{b+j}."""
    a, b = forced_monomers, forced_dimers
    if a < 0 or b < 0 or a + b > d + 1:
        raise ValueError(f"invalid corner split a={a}, b={b} for d={d}")
    varset = class_varset(d)
    free = d + 1 - a - b
    nv = len(varset)
    terms = {}
    for j in range(free + 1):
        exps = [0] * nv
        exps[b + j] = 1
        terms[tuple(exps)] = comb(free, j)
    return Polynomial(varset, terms)


# -- the transfer scan over copies -----------------------------------------------


class Ring(NamedTuple):
    """How the scan's values absorb a copy's factor.

    muladd(acc, value, factor) returns acc + value * factor, where acc None
    stands for zero; it may update acc in place but never value.  scalar
    maps a positive integer weight into a factor.
    """

    unit: object
    scalar: Callable[[int], object]
    muladd: Callable[[object, object, object], object]


def _int_muladd(acc, value, factor):
    value *= factor
    return value if acc is None else acc + value


def t_point(j: int) -> int:
    """The j-th evaluation point of POINT_RING: 0, -1, 2, -2, 3, -3, ..."""
    return j // 2 + 1 if j and j % 2 == 0 else -((j + 1) // 2)


@cache
def _extension_weights(n: int) -> tuple[tuple[int, ...], int]:
    """Integer Lagrange weights W and their denominator D such that
    f(x_n) = sum_j W_j f(x_j) / D for every f of degree < n, x_j = t_point(j)."""
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


def extend_points(values) -> list[int]:
    """The values of an integer t-polynomial of degree < len(values) at the
    first len(values) points, with its value at the next point appended."""
    weights, den = _extension_weights(len(values))
    value, rem = divmod(sum(map(mul, weights, values)), den)
    if rem:
        raise IntegrityError(f"point values of length {len(values)} are not "
                             "those of an integer polynomial")
    return [*values, value]


def interpolate_points(values) -> list[int]:
    """Coefficients, lowest power first, of the integer t-polynomial of degree
    < len(values) whose values at the first len(values) points these are.

    Newton divided differences: those of an integer polynomial at integer
    points are integers, so a division that leaves a remainder means the
    values are not those of one, and raises IntegrityError.
    """
    n = len(values)
    xs = [t_point(j) for j in range(n)]
    newton = list(values)
    for k in range(1, n):
        for j in range(n - 1, k - 1, -1):
            newton[j], rem = divmod(newton[j] - newton[j - 1], xs[j] - xs[j - k])
            if rem:
                raise IntegrityError(
                    f"divided difference {k} at point {xs[j]} is not an integer")
    # Horner from the top Newton coefficient: coeffs <- coeffs (t - x_k) + newton[k]
    coeffs = [newton[-1]]
    for k in range(n - 2, -1, -1):
        shifted = [0, *coeffs]
        for m, coeff in enumerate(coeffs):
            shifted[m] -= xs[k] * coeff
        shifted[0] += newton[k]
        coeffs = shifted
    return coeffs


def _points_muladd(acc, points, factor):
    # points: a t-polynomial's values at the first points; factor: a choice
    # weight (w,), or a copy's degree-1 factor at every point of the scan.
    # No list is updated in place, so a weight of 1 passes points on as
    # they are.
    if len(factor) > 1:
        points = list(map(mul, extend_points(points), factor))
    elif factor[0] != 1:
        points = list(map(mul, points, repeat(factor[0])))
    return points if acc is None else list(map(add, acc, points))


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


# integer values: a copy's factor is its integer mixed count N(a, b)
INT_RING = Ring(unit=1, scalar=int, muladd=_int_muladd)
# integer t-polynomials held at the points t_point(0), t_point(1), ...: a
# copy's factor N(deg+1, 0) + t N(deg, 1) is given at all d+2 points
POINT_RING = Ring(unit=(1,), scalar=lambda w: (w,), muladd=_points_muladd)
# term dicts over packed monomials: a copy's factor is a linear form
TERM_RING = Ring(unit={0: 1}, scalar=lambda w: ((0, w),), muladd=_terms_muladd)


@cache
def _connector_choices(rest: tuple[int, ...]):
    """Ways for the next copy to take connector edges to the later copies.

    rest holds the later copies' pending degrees, sorted.  Copies with equal
    pending degree are interchangeable: taking edges to t of a run of m
    gives one canonical successor with weight C(m, t), and bumping the run's
    last t entries keeps rest sorted.  Returns (successor, edges, weight)
    triples, memoized for the process: they depend on rest alone, and every
    scan of a d meets the same rests.
    """
    options = [((), 0, 1)]
    for deg, run in groupby(rest):
        m = len(tuple(run))
        options = [(head + (deg,) * (m - t) + (deg + 1,) * t, edges + t,
                    weight * comb(m, t))
                   for head, edges, weight in options for t in range(m + 1)]
    return tuple(options)


def transfer_scan(d: int, factors, ring: Ring):
    """Sum over connector-edge subsets of the product of per-copy factors.

    One composition step: factors[deg] is the factor of a copy whose global
    corner is free and which takes deg connector edges.  Copies are absorbed
    in order; the state is the sorted pending connector degrees of the
    later copies.  The edges still open form a complete graph on the later
    copies and a copy's factor depends only on its degree, so states equal
    up to permutation have the same completions and are merged.
    """
    states = {(0,) * (d + 1): ring.unit}
    for _ in range(d + 1):
        buckets: dict = {}
        for state, value in states.items():
            own, rest = state[0], state[1:]
            for successor, edges, weight in _connector_choices(rest):
                key = (successor, own + edges)
                buckets[key] = ring.muladd(buckets.get(key), value, ring.scalar(weight))
        states = {}
        for (successor, deg), value in buckets.items():
            states[successor] = ring.muladd(states.get(successor), value, factors[deg])
    (result,) = states.values()
    return result


def _copy_pairs(b: int, i: int) -> int:
    """The (state, choice) pairs of copy i: the state is a sorted vector of
    b = d+1-i degrees in 0..i, own copy first, and offers prod (m+1)
    choices over the runs of m equal later degrees.

    Summed over the sorted vectors that is [x^b] (1-x)^(-2(i+1)) =
    C(b+2i+1, b); with the own copy first, the run holding the minimum v
    counts one short, which gives sum_{u=0..i} C(b+2u, b-1) (u = i - v).
    Every degree vector in {0..i}^b is reachable before copy i, so this
    is exact.
    """
    return sum(comb(b + 2 * u, b - 1) for u in range(i + 1))


def scan_pairs(d: int):
    """Yield the multiplies of each copy of one stage step, in scan order.

    A step runs two scans: the t-scan, whose values at copy i hold i+1
    point values, and the integer scan for M, one int per value.  So each
    (state, choice) pair of copy i costs i+2 big-integer multiplies.
    """
    for i in range(d + 1):
        yield _copy_pairs(d + 1 - i, i) * (i + 2)


def scan_terms(d: int):
    """Yield the packed coefficients generate's scan can touch, per copy.

    The (state, choice) pairs of copy i are weighted by C(i+d+1, d+1), the
    most monomials a degree-i value over the d+2 class variables holds,
    and by i+1, the t-slots its coefficients fill.
    """
    for i in range(d + 1):
        yield _copy_pairs(d + 1 - i, i) * comb(i + d + 1, i) * (i + 1)


def _check_price(prices, what: str) -> None:
    # the running sum stops at the cap, so a huge d is refused after a few
    # prices
    work = 0
    for price in prices:
        work += price
        if work > SCAN_WORK_CAP:
            raise CapExceeded(f"{what}, above the scan-work cap")


def check_scan_work(d: int) -> None:
    """CapExceeded if one step for d prices above SCAN_WORK_CAP multiplies."""
    _check_price(scan_pairs(d), f"one d={d} stage step runs more than "
                                f"{SCAN_WORK_CAP} (state, choice, t-slot) multiplies")


def check_generation_work(d: int) -> None:
    """CapExceeded if generating the d system prices above SCAN_WORK_CAP
    packed coefficients (scan_terms)."""
    _check_price(scan_terms(d), f"generating the d={d} system touches more "
                                f"than {SCAN_WORK_CAP} polynomial terms")


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
    """The term-dict scan with t-polynomial coefficients packed width bits a slot.

    Slot k of a packed coefficient, at bit width*k, holds the t^k
    coefficient, so one integer multiply-add acts on a whole t-polynomial.
    Every coefficient is a nonnegative integer, and each intermediate
    coefficient, a state's or a bucket's, is at most some final one: it is
    multiplied by a completion (the later factors and choice weights)
    whose terms all have nonnegative coefficients and which has a term
    with a coefficient of at least 1.  The final coefficients sum to M's
    closed-form total m_total, so with width = m_total.bit_length() no slot
    ever carries into the next.

    A narrower width does carry.  The packed integer is still the exact
    value of the t-polynomial at t = 2^width, so each carry lowers its
    digit sum in base 2^width by 2^width - 1, and M's coefficient total,
    the sum of the digits, then misses m_total (a digit past the top slot
    is refused at once): every narrowed width raises IntegrityError and
    returns nothing.
    """
    if width < 1:
        raise IntegrityError(f"a t-slot of {width} bits holds no coefficient")
    class_total, m_total = _closed_form_totals(d)
    varset = class_varset(d)
    nv = len(varset)
    slots = nv  # t^0..t^(d+1): the k dimer-forced corners of class k
    bits = (d + 1).bit_length()  # one exponent field per class variable
    # F_deg's weight for c_j is C(f, j-1) t + C(f, j), where f = d - deg
    # corners stay free: N(deg, 1) gives the t slot, N(deg+1, 0) the t^0 slot
    factors = [
        tuple((1 << (bits * j),
               ((comb(d - deg, j - 1) if j else 0) << width) + comb(d - deg, j))
              for j in range(d - deg + 2))
        for deg in range(d + 1)
    ]
    packed_terms = transfer_scan(d, factors, TERM_RING)

    # one pass over the packed terms: exponent fields and t-slots are split
    # by precomputed shifts, and only nonzero coefficients are stored.  Class
    # k's keys are a subset of M's, so homogeneity is checked once per key.
    exp_mask, slot_mask = (1 << bits) - 1, (1 << width) - 1
    exp_shifts = [bits * i for i in range(nv)]
    # every k-subset of dimer-forced corners gives the same P_k, so slot k
    # holds C(d+1, k) P_k
    slot_plan = [(k, width * k, comb(d + 1, k), {}) for k in range(slots)]
    top = width * slots
    m_terms = {}
    homogeneous = True
    # k -> the first t^k coefficient its choices do not divide; raised after
    # M's checks, as M's total is what names a carry from a narrowed slot
    indivisible = {}
    for key, packed in packed_terms.items():
        if not packed:
            continue
        if packed >> top:
            raise IntegrityError(f"packed coefficients overflow {slots} t-slots "
                                 f"of {width} bits")
        exps = tuple([key >> shift & exp_mask for shift in exp_shifts])
        if sum(exps) != d + 1:
            homogeneous = False
        total = 0
        for k, shift, choices, terms in slot_plan:
            coeff = packed >> shift & slot_mask
            if coeff:
                total += coeff
                terms[exps], rem = divmod(coeff, choices)
                if rem:
                    indivisible.setdefault(k, coeff)
        m_terms[exps] = total

    m_sum = sum(m_terms.values())
    if m_sum != m_total:
        raise IntegrityError(
            f"total polynomial coefficient sum {m_sum} != closed-form total {m_total}")
    if not homogeneous or min(m_terms.values(), default=0) < 0:
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


def ratio_form(sys: RecursionSystem) -> tuple[Polynomial, ...]:
    """Images of the class polynomials under c_k -> (prod_{j>=k} r_j) c_{d+1}.

    Each recursion polynomial equals c_{d+1}^{d+1} times the returned
    polynomial in the consecutive-ratio variables r0..rd.
    """
    d = sys.d
    rvars = ratio_varset(d)
    images = []
    for poly in sys.class_polys:
        terms: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly.terms():
            acc = 0
            rexps = []
            for j in range(d + 1):
                acc += exps[j]
                rexps.append(acc)
            key = tuple(rexps)
            terms[key] = terms.get(key, 0) + coeff
        images.append(Polynomial(rvars, terms))
    return tuple(images)


def reduced_ratio_form(sys: RecursionSystem) -> tuple[Polynomial, ...]:
    """Ratio images with the guaranteed r_d^{d+1-k} factor divided out.

    The stage-(n+1) ratios then read r_k(n+1) = r_d * R_k / R_{k+1} over
    these reduced polynomials R_k, the form the monotonicity and
    contraction certificates work with.
    """
    d = sys.d
    rvars = ratio_varset(d)
    reduced = []
    for k, image in enumerate(ratio_form(sys)):
        drop = d + 1 - k
        terms = {}
        for exps, coeff in image.terms():
            if exps[d] < drop:
                raise IntegrityError(
                    f"ratio image of c{k} not divisible by r{d}^{drop}"
                )
            terms[exps[:d] + (exps[d] - drop,)] = coeff
        reduced.append(Polynomial(rvars, terms))
    return tuple(reduced)


# -- cache file --------------------------------------------------------------

_HEADER_RE = re.compile(r"# d=(\d+) basis=c0\.\.c(\d+)$")


def cache_path(cache_dir: Path, d: int) -> Path:
    return Path(cache_dir) / f"recursions_d{d}.txt"


def _line_labels(d: int) -> list[str]:
    # the cache file's polynomial lines, in order: the class polynomials, then M
    return [f"c{k}" for k in range(d + 2)] + ["M"]


def save_system(sys: RecursionSystem, path: Path) -> None:
    """Write the bit-exact canonical cache file.

    The text goes to a temporary file beside the target, which then
    replaces it, so an interrupted write leaves the previous file whole.
    A write that fails (an OSError: the target is a directory, the
    directory is read-only, the disk is full) removes the temporary file
    and raises HanoiDimerError naming the path.
    """
    import os

    texts = serialize_many(sys.class_polys + (sys.m_poly,))
    lines = [f"# d={sys.d} basis=c0..c{sys.d + 1}"]
    lines += [f"{label}: {text}" for label, text in zip(_line_labels(sys.d), texts)]
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        tmp.replace(path)
    except BaseException as err:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise HanoiDimerError(
                f"cannot write cache file {path}: {err.strerror or err}") from err
        raise


def load_system(path: Path, d: int | None = None) -> RecursionSystem:
    """Parse and sanity-check a cache file; CacheCorruption on any defect.

    Given d, a file written for another dimension is a defect too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise CacheCorruption(f"cannot read cache file {path}: {err}") from err
    lines = text.splitlines()
    if not lines:
        raise CacheCorruption(f"cache file {path} is empty")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise CacheCorruption(f"cache file {path} has a malformed header")
    if d is not None and int(header.group(1)) != d:
        raise CacheCorruption(
            f"cache file {path} holds the d={header.group(1)} system, not d={d}")
    d = int(header.group(1))
    if int(header.group(2)) != d + 1:
        raise CacheCorruption(f"cache file {path} header basis disagrees with d={d}")
    labels = _line_labels(d)
    if len(lines) != 1 + len(labels):
        raise CacheCorruption(
            f"cache file {path} has {len(lines) - 1} polynomial lines, expected {len(labels)}"
        )
    varset = class_varset(d)
    polys = []
    for label, line in zip(labels, lines[1:]):
        prefix = f"{label}: "
        if not line.startswith(prefix):
            raise CacheCorruption(f"cache file {path}: expected line label {label!r}")
        try:
            polys.append(parse_polynomial(line[len(prefix):], varset))
        except Exception as err:
            raise CacheCorruption(f"cache file {path}: {err}") from err
    system = RecursionSystem(d=d, varset=varset,
                             class_polys=tuple(polys[:-1]), m_poly=polys[-1])
    for poly in system.class_polys + (system.m_poly,):
        if not poly.is_homogeneous(d + 1) or poly.min_coefficient() < 0:
            raise CacheCorruption(f"cache file {path}: polynomial failed validation")
    return system
