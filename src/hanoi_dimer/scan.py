"""The copy-transfer scan: one composition step, from d alone.

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

The scan's values live in a ring (Ring).  evolve.step scans the integer
mixed counts of a stage's class vector in POINT_RING, where a value at
copy i, a degree-i t-polynomial, is held as its i+1 values at the first of
the fixed integer points 0, -1, 2, -2, 3, -3, ... (t_point; t = 1 is left
out).  Before a copy's factor multiplies a value, the value gains one more
point by exact Lagrange extrapolation (extend_points), so the product is
pointwise: i+2 big multiplies where the coefficient product takes 2(i+1)
(Toom-Cook evaluation and interpolation; Brent & Zimmermann, Modern
Computer Arithmetic, 2010, section 1.3.3).  interpolate_points turns the
final d+2 values back into coefficients.  M comes from one more integer
scan with the plain factor N(deg, 0) (INT_RING); as t = 1 is no point, it
checks every point through the binomial sum of the class counts.
recursion_gen scans term dicts over the class variables in a ring of its
own, to generate the polynomial system.  Both kinds of scan are priced from
d alone (scan_pairs, scan_terms), and check_scan_work and
check_generation_work refuse a price above SCAN_WORK_CAP before any scan.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, repeat
from math import comb, gcd, lcm
from operator import add, mul
from typing import Callable, NamedTuple

from .errors import CapExceeded, IntegrityError

# caps the scans' price from d alone: a stage step's point-weighted
# (state, choice) pairs (scan_pairs) admit d <= 12 (1,484,006) and refuse
# d = 13 (4,115,170); generation's packed coefficients (scan_terms) admit
# d <= 6 (604,845) and refuse d = 7 (4,567,478)
SCAN_WORK_CAP = 2_000_000


def corner_splits(d: int) -> tuple[tuple[int, int], ...]:
    """Every (a, b) a copy can take: a monomer-forced, b dimer-forced corners.

    b is 0 or 1, as a copy owns one global corner.
    """
    return tuple((a, b) for b in (0, 1) for a in range(d + 2 - b))


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
    pairs = []
    for j in range(n):
        num = den = 1
        for m in range(n):
            if m != j:
                num *= xs[n] - xs[m]
                den *= xs[j] - xs[m]
        g = gcd(num, den)
        pairs.append((num // g, den // g))
    common = lcm(*(den for _, den in pairs))
    return tuple(num * (common // den) for num, den in pairs), common


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


# integer values: a copy's factor is its integer mixed count N(a, b)
INT_RING = Ring(unit=1, scalar=int, muladd=_int_muladd)
# integer t-polynomials held at the points t_point(0), t_point(1), ...: a
# copy's factor N(deg+1, 0) + t N(deg, 1) is given at all d+2 points
POINT_RING = Ring(unit=(1,), scalar=lambda w: (w,), muladd=_points_muladd)


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
    and by i+1, the t-slots its coefficients fill.  The scan packs the
    powers of c_1 into the coefficient as well, so those slots sit in
    fewer, wider integers.
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
