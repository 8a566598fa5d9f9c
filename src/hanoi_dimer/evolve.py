"""Evolution of boundary-class vectors, exact and enclosed.

Stage vectors are exact big integers (BoundaryClassVector); where only the
leading bits of later counts matter (the entropy bounds, and the ratio facts
of reproduce's last stage), a CountInterval carries them from a seed stage as
outward-rounded integer intervals of a fixed bit width.  An exact stage is
the enclosure of zero width, which interval_step advances by step itself
until its counts outgrow the width; evolve_to evolves exact stages only.
Stages advance by the integer transfer scans of the scan module (step,
interval_step), which need nothing but d: one scan whose values are
polynomials in t, held as their exact values at d+2 integer points, gives
every class count (coefficient t^k sums the C(d+1, k) choices of k
dimer-forced corners), and one plain integer scan gives the total M.
apply_system evaluates a given recursion system term by term instead, which
is how verify checks the generated system against the oracle (the loaded
cache file is compared with that system, not evaluated).  It alone runs
multipoly, whose evaluate_int this module binds on first use (PEP 562), so
that a command evolving by the scan never loads it.  Stage-0 vectors are the
matching counts of K_{d+1} with the corner constraints applied: c_k(0) is
the number of perfect matchings on the k dimer-forced corners, (k-1)!! for
even k and 0 for odd k.

Class counts are strictly monotone in k from stage 1 on: increasing for
d >= 3, decreasing for d = 2 (the three-corner system is top-heavy, which
the brute-force oracle confirms).  The facts about their ratios are decided
in ratio_facts.  What those facts share with entropy.bounds stays here:
decide_at_least decides a comparison on the ends of two enclosed integers,
chain_decisions the ratio chain of one enclosure, and certified_digit_prefix
reads the digits two renderings of an enclosure's ends agree on.
"""

from __future__ import annotations

from math import comb
from os.path import commonprefix
from typing import TYPE_CHECKING, NamedTuple

from .errors import DEFAULT_DIGIT_CAP, CapExceeded, IntegrityError
from .intutil import digit_count
from .scan import (
    INT_RING,
    POINT_RING,
    check_scan_work,
    corner_splits,
    interpolate_points,
    t_point,
    transfer_scan,
)

if TYPE_CHECKING:
    from .recursion_gen import RecursionSystem


def __getattr__(name: str):
    # evaluate_int is bound on first use: a wrapper set on evolve.evaluate_int
    # is the one apply_system calls
    if name != "evaluate_int":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .multipoly import evaluate_int

    globals()[name] = evaluate_int
    return evaluate_int


class _BoundaryClassVector(NamedTuple):
    d: int
    n: int
    counts: tuple[int, ...]
    m: int


class BoundaryClassVector(_BoundaryClassVector):
    """Exact matching counts of TH_d(n), classified by dimer-covered corners.

    counts[k] = matchings with a fixed k-subset of corners dimer-covered and
    the rest monomer-covered; m = unconstrained total.  Checked on every
    construction, _make and _replace included.
    """

    __slots__ = ()

    def __new__(cls, d: int, n: int, counts: tuple[int, ...], m: int):
        if len(counts) != d + 2:
            raise IntegrityError(
                f"class vector for d={d} needs {d + 2} counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise IntegrityError("negative class count")
        total = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
        if total != m:
            raise IntegrityError(
                f"total {m} differs from binomial-weighted class sum {total}"
            )
        if n >= 1:
            pairs = zip(counts, counts[1:])
            if d == 2:
                ok = all(a > b for a, b in pairs)
            else:
                ok = all(a < b for a, b in pairs)
            if not ok:
                raise IntegrityError(
                    f"class counts at stage {n} are not strictly monotone"
                )
        return super().__new__(cls, d, n, counts, m)

    @classmethod
    def _make(cls, iterable) -> BoundaryClassVector:
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def _double_factorial_matchings(k: int) -> int:
    # perfect matchings of K_k
    if k % 2:
        return 0
    out = 1
    for i in range(k - 1, 0, -2):
        out *= i
    return out


def initial_vector(d: int) -> BoundaryClassVector:
    counts = tuple(_double_factorial_matchings(k) for k in range(d + 2))
    m = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
    return BoundaryClassVector(d=d, n=0, counts=counts, m=m)


def _mixed_counts(d: int, counts: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Integer mixed counts N(a, b) = sum_j C(d+1-a-b, j) c_{b+j} of a stage."""
    return {
        (a, b): sum(comb(d + 1 - a - b, j) * counts[b + j]
                    for j in range(d + 2 - a - b))
        for a, b in corner_splits(d)
    }


def _class_counts(d: int, mixed: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """c_0..c_{d+1} of the next stage from one t-scan of the mixed counts.

    The scan gives the t-polynomial's values at d+2 points, each copy's
    factor N(deg+1, 0) + t N(deg, 1) taken at every point; its coefficient
    of t^k holds C(d+1, k) c_k, one term per k-subset of dimer-forced
    corners, and a remainder means the corner symmetry failed.
    """
    factors = [tuple(mixed[deg + 1, 0] + t_point(j) * mixed[deg, 1]
                     for j in range(d + 2)) for deg in range(d + 1)]
    points = transfer_scan(d, factors, POINT_RING)
    counts = []
    for k, coeff in enumerate(interpolate_points(points)):
        count, rem = divmod(coeff, comb(d + 1, k))
        if rem:
            raise IntegrityError(
                f"t^{k} coefficient {coeff} is not divisible by the "
                f"C({d + 1},{k}) = {comb(d + 1, k)} corner choices")
        counts.append(count)
    return tuple(counts)


def step(v: BoundaryClassVector) -> BoundaryClassVector:
    """Advance one stage by the transfer scans for v.d.

    The class counts come from one t-scan, and the total M from its own
    integer scan (each copy's factor N(deg, 0)), so the binomial-sum
    invariant re-checked on the result stays an independent check of the
    counts.
    """
    mixed = _mixed_counts(v.d, v.counts)
    counts = _class_counts(v.d, mixed)
    m = transfer_scan(v.d, [mixed[deg, 0] for deg in range(v.d + 1)], INT_RING)
    return BoundaryClassVector(d=v.d, n=v.n + 1, counts=counts, m=m)


class CountInterval(NamedTuple):
    """Outward-rounded enclosure of a stage's class counts.

    c_j(n) lies in [lo[j] * 2^shift, hi[j] * 2^shift]; all counts share the
    one shift.  With shift 0 and lo == hi the counts are exact.
    """

    d: int
    n: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    shift: int

    @property
    def exact(self) -> bool:
        return self.shift == 0 and self.lo == self.hi


def _truncate(d: int, n: int, lo: tuple[int, ...], hi: tuple[int, ...],
              shift: int, bits: int) -> CountInterval:
    # floor lo and ceil hi by one common shift that leaves the top count bits
    # wide (bits + 1 where its ceiling carries)
    drop = max(0, max(hi).bit_length() - bits)
    return CountInterval(d=d, n=n, lo=tuple(c >> drop for c in lo),
                         hi=tuple(-(-c >> drop) for c in hi), shift=shift + drop)


def enclose(v: BoundaryClassVector, bits: int) -> CountInterval:
    """Truncate an exact vector outward so that its top count has bits bits."""
    return _truncate(v.d, v.n, v.counts, v.counts, 0, bits)


def interval_step(iv: CountInterval, bits: int) -> CountInterval:
    """Advance an enclosure one stage and re-truncate it to bits bits.

    The class polynomials are homogeneous of degree d+1, so the shift
    scales by d+1.  Each class count the scan returns is the exact value of
    a class polynomial, whose coefficients are nonnegative, whatever the
    signs of the point values on the way; so it is monotone in the counts,
    and the images of lo and hi enclose the next stage.  An enclosure of
    zero width (lo == hi) is stepped once, by step, so that its image is
    checked as an exact stage's is: M's own scan against the binomial sum,
    and strict monotonicity from stage 1.
    """
    if iv.lo == iv.hi:
        d, counts = iv.d, iv.lo
        m = sum(comb(d + 1, k) * c for k, c in enumerate(counts))
        lo = hi = step(BoundaryClassVector(d=d, n=iv.n, counts=counts, m=m)).counts
    else:
        lo = _class_counts(iv.d, _mixed_counts(iv.d, iv.lo))
        hi = _class_counts(iv.d, _mixed_counts(iv.d, iv.hi))
    return _truncate(iv.d, iv.n + 1, lo, hi, iv.shift * (iv.d + 1), bits)


def apply_system(sys: RecursionSystem, v: BoundaryClassVector) -> BoundaryClassVector:
    """Advance one stage by evaluating the given system's polynomials."""
    if v.d != sys.d:
        raise ValueError(f"vector dimension {v.d} does not match system {sys.d}")
    evaluate = globals().get("evaluate_int") or __getattr__("evaluate_int")
    point = {f"c{k}": c for k, c in enumerate(v.counts)}
    counts = tuple(evaluate(p, point) for p in sys.class_polys)
    m = evaluate(sys.m_poly, point)
    return BoundaryClassVector(d=v.d, n=v.n + 1, counts=counts, m=m)


def evolve_to(d: int, n_max: int,
              digit_cap: int = DEFAULT_DIGIT_CAP) -> list[BoundaryClassVector]:
    """Stages 0..n_max inclusive by step, guarded against runaway work.

    The scan-work cap is checked first, for any n_max; the digit cap
    predicts the digits of stage n_max at every stage that is evolved.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    check_scan_work(d)
    v = initial_vector(d)
    out = [v]
    while v.n < n_max:
        steps = n_max - v.n
        if steps >= digit_cap.bit_length() + 64:
            # (d+1)^steps >= 2^steps is far past the cap; build no such power
            raise CapExceeded(
                f"evolving d={d} to stage {n_max} predicts over 2^{steps} digit "
                f"counts, above the cap of {digit_cap}; raise it with --digit-cap"
            )
        predicted = digit_count(max(v.counts)) * (d + 1) ** steps
        if predicted > digit_cap:
            raise CapExceeded(
                f"evolving d={d} to stage {n_max} predicts ~{predicted} digit "
                f"counts, above the cap of {digit_cap}; raise it with --digit-cap"
            )
        v = step(v)
        out.append(v)
    return out


# -- ratio facts on the ends of enclosures ------------------------------------


def certified_digit_prefix(lower: str, upper: str) -> tuple[str, int]:
    """Common decimal prefix of two renderings of the ends of an enclosure,
    and its count of fractional digits.

    The integer parts, signs included, must agree, else the prefix is empty.
    """
    int_lo, _, frac_lo = lower.partition(".")
    int_hi, _, frac_hi = upper.partition(".")
    if int_lo != int_hi:
        return ("", 0)
    common = commonprefix([frac_lo, frac_hi])
    return (f"{int_lo}.{common}" if common else int_lo, len(common))


Ends = tuple[int, int]


def decide_at_least(left: Ends, right: Ends) -> bool | None:
    """Whether x >= y for every x in [left[0], left[1]] and y in [right[0],
    right[1]].

    True when left's low end reaches right's high end, False when left's
    high end is below right's low end, None when the ends leave it open.
    Exact values, each with equal ends, are always decided.
    """
    if left[0] >= right[1]:
        return True
    if left[1] < right[0]:
        return False
    return None


def _mul(a: Ends, b: Ends) -> Ends:
    """Ends of the product of two enclosed integers of any sign."""
    if a[0] == a[1] and b[0] == b[1]:
        p = a[0] * b[0]
        return p, p
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends), max(ends)


def chain_decisions(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[bool | None]:
    """For each j < d, whether r_j >= r_{j+1}, that is c_j c_{j+2} >=
    c_{j+1}^2, for every count vector between lo and hi (decide_at_least).

    If all are True and every hi of c_1..c_{d+1} is positive, each
    lo_j lo_{j+2} is positive, so every vector of the box has positive
    counts and ratios r_0 >= ... >= r_d, and so r_0 >= r_j >= r_d.
    """
    c = tuple(zip(lo, hi))
    return [decide_at_least(_mul(c[j], c[j + 2]), _mul(c[j + 1], c[j + 1]))
            for j in range(len(c) - 2)]
