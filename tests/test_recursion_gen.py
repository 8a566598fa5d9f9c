"""Recursion generation: census, mixed counts, golden match, ratio forms."""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import combinations
from pathlib import Path
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import recursion_gen
from hanoi_dimer.errors import CacheCorruption, CapExceeded, HanoiDimerError, IntegrityError
from hanoi_dimer.multipoly import (
    Polynomial,
    evaluate_int,
    serialize,
    serialize_many,
    substitute,
)
from hanoi_dimer.recursion_gen import (
    SCAN_WORK_CAP,
    Ring,
    cache_path,
    class_varset,
    generate,
    load_system,
    corner_splits,
    extend_points,
    interpolate_points,
    mixed_count_expansion,
    ratio_form,
    ratio_varset,
    reduced_ratio_form,
    save_system,
    scan_terms,
    t_point,
)

from .helpers import (
    REPO_DIR,
    census,
    degree_profile_step,
    degree_profile_totals,
    load_golden_d3,
    parse_classic,
    serialize_by_terms,
)


def brute_census(d: int) -> dict[tuple[int, ...], int]:
    """Independent census oracle: literal loop over all edge subsets."""
    edges = list(combinations(range(d + 1), 2))
    counts: dict[tuple[int, ...], int] = {}
    for mask in range(1 << len(edges)):
        degs = [0] * (d + 1)
        for bit, (i, j) in enumerate(edges):
            if mask >> bit & 1:
                degs[i] += 1
                degs[j] += 1
        key = tuple(sorted(degs))
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- census --------------------------------------------------------------------


def test_census_d3_star_triangle_path_counts():
    c = census(3)
    assert c.counts[(1, 1, 1, 3)] == 4  # stars
    assert c.counts[(0, 2, 2, 2)] == 4  # triangles
    assert c.counts[(1, 1, 2, 2)] == 12  # 3-edge paths
    assert c.total_subsets() == 2**6


def test_census_totals():
    assert census(2).total_subsets() == 8
    assert census(4).total_subsets() == 1024


@pytest.mark.parametrize("d", [2, 3, 4])
def test_census_matches_brute_force(d):
    assert census(d).counts == brute_census(d)


def test_census_entries_bounded_by_d():
    for d in (2, 3, 4, 5):
        for multiset in census(d).counts:
            assert all(deg <= d for deg in multiset)
            assert len(multiset) == d + 1


def test_census_cap_reports_subset_count():
    with pytest.raises(CapExceeded) as err:
        census(7, subset_cap=1 << 21)
    assert str(err.value) == (f"census for d=7 needs {1 << 28} subsets, above "
                              f"the cap of {1 << 21}")


# -- mixed counts ----------------------------------------------------------------


def test_mixed_count_expansions_d3():
    assert serialize(mixed_count_expansion(3, 1, 0)) == "1*c0 + 3*c1 + 3*c2 + 1*c3"
    assert serialize(mixed_count_expansion(3, 2, 1)) == "1*c1 + 1*c2"
    assert serialize(mixed_count_expansion(3, 4, 0)) == "1*c0"


def test_mixed_count_expansion_is_binomial():
    for d in (2, 3, 4):
        for a in range(d + 2):
            for b in range(d + 2 - a):
                poly = mixed_count_expansion(d, a, b)
                free = d + 1 - a - b
                assert poly.coefficient_sum() == 2**free
                for j in range(free + 1):
                    assert poly.coefficient({f"c{b + j}": 1}) == comb(free, j)


# -- pre-substitution forms -------------------------------------------------------


def mixed_count_name(a: int, b: int) -> str:
    return f"n{a}_{b}"


def mixed_varset(d: int) -> tuple[str, ...]:
    """The n{a}_{b} variables, one per corner split a copy can take."""
    return tuple(mixed_count_name(a, b) for a, b in corner_splits(d))


def mixed_count_bindings(d: int) -> dict[str, Polynomial]:
    return {mixed_count_name(a, b): mixed_count_expansion(d, a, b)
            for a, b in corner_splits(d)}


def fn_reference(d3_mixed_vars) -> Polynomial:
    # all-monomer one-step sum in P,Q,R,f notation (P=n1_0, Q=n2_0, R=n3_0, f=n4_0)
    text = ("P^4+6P^2Q^2+12PQ^2R+3Q^4+4PR^3+4fQ^3+12Q^2R^2"
            "+12fQR^2+3R^4+6f^2R^2+f^4")
    return parse_classic(text, "PQRf", ("n1_0", "n2_0", "n3_0", "n4_0"))


def test_mixed_recursion_k0_matches_reference_d3():
    got = _mixed_recursion_for_subset(3, set())
    expected = fn_reference(None).with_varset(mixed_varset(3))
    assert got == expected


def test_mixed_recursion_total_matches_reference_d3():
    text = ("M^4+6M^2P^2+12MP^2Q+3P^4+4MQ^3+4P^3R+12P^2Q^2"
            "+12PQ^2R+3Q^4+6Q^2R^2+R^4")
    expected = parse_classic(text, "MPQR", ("n0_0", "n1_0", "n2_0", "n3_0"))
    got = _mixed_recursion_for_subset(3, None)
    assert got == expected.with_varset(mixed_varset(3))


def test_mixed_recursion_all_dimer_matches_reference_d3():
    text = ("X^4+6X^2Y^2+3Y^4+12XY^2W+4XW^3+4gY^3+12Y^2W^2"
            "+3W^4+12gYW^2+6g^2W^2+g^4")
    expected = parse_classic(text, "XYWg", ("n0_1", "n1_1", "n2_1", "n3_1"))
    got = _mixed_recursion_for_subset(3, set(range(4)))
    assert got == expected.with_varset(mixed_varset(3))


# -- generated system ---------------------------------------------------------------


def test_generated_d3_system_matches_golden_byte_for_byte(systems):
    golden = load_golden_d3()
    sys3 = systems(3)
    for k, symbol in enumerate("fghts"):
        assert serialize(sys3.class_polys[k]) == serialize(golden[symbol])
    assert serialize(sys3.m_poly) == serialize(golden["M"])


def test_substituting_mixed_counts_reproduces_golden_f_spot_coefficients(systems):
    poly = systems(3).class_polys[0]
    assert poly.coefficient({"c0": 4}) == 64
    assert poly.coefficient({"c3": 4}) == 1
    assert poly.coefficient({"c1": 4}) == 552


def test_substituting_mixed_counts_reproduces_golden_s_spot_coefficients(systems):
    poly = systems(3).class_polys[4]
    assert poly.coefficient({"c1": 4}) == 64
    assert poly.coefficient({"c4": 4}) == 1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_generated_polynomials_are_homogeneous_nonnegative(systems, d):
    sys_d = systems(d)
    for poly in sys_d.class_polys + (sys_d.m_poly,):
        assert poly.is_homogeneous(d + 1)
        assert poly.min_coefficient() > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coefficient_totals_match_census(systems, d):
    # independent route: class totals from the subset census
    counts = brute_census(d)
    class_total = sum(
        cnt * _prod(2 ** (d - deg) for deg in degs) for degs, cnt in counts.items()
    )
    m_total = sum(
        cnt * _prod(2 ** (d + 1 - deg) for deg in degs) for degs, cnt in counts.items()
    )
    sys_d = systems(d)
    for poly in sys_d.class_polys:
        assert poly.coefficient_sum() == class_total
    assert sys_d.m_poly.coefficient_sum() == m_total


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_closed_form_totals_match_degree_profile_census(d):
    # generate checks against 5^E and 2^(d+1) 5^E over the E connector edges
    profile = degree_profile_totals(d)
    assert sum(profile.values()) == 2 ** (d * (d + 1) // 2)
    class_total = sum(
        cnt * _prod(2 ** (d - deg) for deg in degs) for degs, cnt in profile.items()
    )
    m_total = sum(
        cnt * _prod(2 ** (d + 1 - deg) for deg in degs) for degs, cnt in profile.items()
    )
    assert class_total == 5 ** (d * (d + 1) // 2)
    assert m_total == 2 ** (d + 1) * 5 ** (d * (d + 1) // 2)


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_corner_choice_symmetry(d, k, systems):
    """Any k-subset of dimer-forced corners yields the same class polynomial."""
    bindings = mixed_count_bindings(d)
    reference = systems(d).class_polys[k]

    corners = d + 1
    for chosen in combinations(range(corners), k):
        poly = _mixed_recursion_for_subset(d, set(chosen))
        expanded = substitute(poly, bindings).with_varset(class_varset(d))
        assert expanded == reference


def _mixed_recursion_for_subset(d: int, dimer_corners: set[int] | None) -> Polynomial:
    """One composition step in the mixed-count basis, walking every choice of
    connector edges without merging states: the copies in dimer_corners have
    their global corner dimer-forced and the rest monomer-forced, or, for
    None, every global corner stays free (the unconstrained total)."""
    copies = d + 1
    varset = mixed_varset(d)
    index = {name: i for i, name in enumerate(varset)}
    nv = len(varset)
    states = {(0,) * copies: {(0,) * nv: 1}}
    for i in range(copies):
        later = copies - i - 1
        buckets = {}
        for partial, terms in states.items():
            own, rest = partial[0], partial[1:]
            for choice in range(1 << later):
                deg = own + bin(choice).count("1")
                if dimer_corners is None:
                    a, b = deg, 0
                else:
                    b = 1 if i in dimer_corners else 0
                    a = deg + 1 - b
                new_rest = list(rest)
                for t in range(later):
                    if choice >> t & 1:
                        new_rest[t] += 1
                key = (tuple(new_rest), index[mixed_count_name(a, b)])
                bucket = buckets.setdefault(key, {})
                for m, c in terms.items():
                    bucket[m] = bucket.get(m, 0) + c
        states = {}
        for (new_rest, var_i), terms in buckets.items():
            target = states.setdefault(new_rest, {})
            for m, c in terms.items():
                bumped = m[:var_i] + (m[var_i] + 1,) + m[var_i + 1:]
                target[bumped] = target.get(bumped, 0) + c
    (result,) = states.values()
    return Polynomial(varset, result)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_class_polys_equal_substituted_mixed_recursions(systems, d):
    """The folded scan agrees with the substitution route it stands for."""
    bindings = mixed_count_bindings(d)
    sys_d = systems(d)
    for k in range(d + 2):
        poly = _mixed_recursion_for_subset(d, set(range(k)))
        assert substitute(poly, bindings).with_varset(class_varset(d)) == sys_d.class_polys[k]
    poly = _mixed_recursion_for_subset(d, None)
    assert substitute(poly, bindings).with_varset(class_varset(d)) == sys_d.m_poly


@pytest.mark.parametrize("d", range(2, 7))
def test_packed_scan_matches_per_class_scans(systems, d):
    """The one t-packed scan agrees, at random 64-bit points, with the
    degree-profile reference, which sums a product per class over the
    edge-by-edge degree profile.  A wrong polynomial of degree d+1 <= 7
    vanishes at a random point with probability at most 7 / 2^64
    (Schwartz-Zippel), so four points miss it with probability below
    2^-240."""
    rng = random.Random(f"degree-profile-{d}")
    system = systems(d)
    for _ in range(4):
        counts = tuple(rng.getrandbits(64) for _ in range(d + 2))
        point = dict(zip(class_varset(d), counts))
        got = (tuple(evaluate_int(p, point) for p in system.class_polys),
               evaluate_int(system.m_poly, point))
        assert got == degree_profile_step(d, counts)


@pytest.mark.parametrize("d", range(2, 6))
def test_narrowed_t_slots_raise_integrity_error(systems, d):
    """A slot narrower than the widest coefficient carries, and the carry is
    caught: no narrowed width returns a system."""
    system = systems(d)
    widest = max(coeff * comb(d + 1, k)
                 for k, poly in enumerate(system.class_polys)
                 for _, coeff in poly.terms()).bit_length()
    assert widest <= recursion_gen._closed_form_totals(d)[1].bit_length()
    assert recursion_gen._scan_system(d, widest) == system
    for width in (widest - 1, widest - 8, widest - 20, 1, 0):
        with pytest.raises(IntegrityError):
            recursion_gen._scan_system(d, width)


def test_asymmetric_packed_coefficient_fails_divisibility(monkeypatch):
    """Moving one unit of a t coefficient to t^0 keeps M's total but leaves
    the t slot indivisible by its C(3, 1) corner choices: IntegrityError."""
    scan = recursion_gen.transfer_scan
    width = recursion_gen._closed_form_totals(2)[1].bit_length()

    def skewed(*args):
        terms = scan(*args)
        key = next(key for key, packed in terms.items()
                   if packed >> width & ((1 << width) - 1))
        terms[key] += 1 - (1 << width)
        return terms

    monkeypatch.setattr(recursion_gen, "transfer_scan", skewed)
    with pytest.raises(IntegrityError, match="not divisible by the C"):
        generate(2)


# -- the point ring ------------------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 7))
def test_generated_polynomials_hold_canonical_terms(systems, d):
    """The unpack builds its polynomials without Polynomial's checks: every
    stored coefficient is a nonzero int on a degree-(d+1) monomial."""
    system = systems(d)
    for poly in system.class_polys + (system.m_poly,):
        assert poly.varset == class_varset(d)
        for exps, coeff in poly._terms.items():
            assert type(exps) is tuple and len(exps) == d + 2 and sum(exps) == d + 1
            assert type(coeff) is int and coeff != 0


def _skew_one_packed_term(monkeypatch, d, pick, shift):
    """Make transfer_scan's packed terms go wrong at one key: pick chooses
    the key from (key, packed) and shift returns its new (key, packed)."""
    scan = recursion_gen.transfer_scan

    def skewed(*args):
        terms = scan(*args)
        key = next(key for key, packed in terms.items() if pick(key, packed))
        new_key, packed = shift(key, terms.pop(key))
        terms[new_key] = packed
        return terms

    monkeypatch.setattr(recursion_gen, "transfer_scan", skewed)


D2_WIDTH = recursion_gen._closed_form_totals(2)[1].bit_length()
D2_SLOT = (1 << D2_WIDTH) - 1

# each fault at d = 2 (4 slots, 2-bit exponent fields) and the message it gets
PACKED_FAULTS = {
    "overflow": (lambda key, packed: True,
                 lambda key, packed: (key, packed + (1 << 4 * D2_WIDTH)),
                 "overflow 4 t-slots"),
    "total": (lambda key, packed: True,
              lambda key, packed: (key, packed + 1),
              "total polynomial coefficient sum"),
    "shape": (lambda key, packed: key & 3 == 0,  # c0's exponent 0: bump it
              lambda key, packed: (key + 1, packed),
              "total polynomial failed shape checks"),
    "class total": (lambda key, packed: packed & D2_SLOT >= 3,
                    lambda key, packed: (key, packed + (3 << D2_WIDTH) - 3),
                    "class polynomial c0 coefficient total"),
}


@pytest.mark.parametrize("fault", PACKED_FAULTS)
def test_each_packed_term_fault_raises_its_integrity_error(monkeypatch, fault):
    pick, shift, message = PACKED_FAULTS[fault]
    _skew_one_packed_term(monkeypatch, 2, pick, shift)
    with pytest.raises(IntegrityError, match=message):
        generate(2)


@pytest.mark.parametrize("d", range(2, 7))
def test_serializer_matches_per_term_reference_on_generated_systems(systems, d):
    system = systems(d)
    polys = system.class_polys + (system.m_poly,)
    assert serialize_many(polys) == [serialize_by_terms(p) for p in polys]


def test_points_run_from_zero_and_leave_out_one():
    assert [t_point(j) for j in range(8)] == [0, -1, 2, -2, 3, -3, 4, -4]
    assert 1 not in {t_point(j) for j in range(64)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**256) + 1, 2**256 - 1), min_size=1, max_size=14))
def test_point_values_extend_and_interpolate_exactly(coeffs):
    # a random integer polynomial of degree 0..13, lowest power first
    def at(x):
        return sum(c * x**e for e, c in enumerate(coeffs))

    values = [at(t_point(j)) for j in range(len(coeffs))]
    assert extend_points(values) == values + [at(t_point(len(coeffs)))]
    assert interpolate_points(values) == coeffs
    assert interpolate_points(extend_points(values)) == coeffs + [0]


def test_values_of_no_integer_polynomial_raise():
    # 0, 1, 0 at t = 0, -1, 2 are the values of (t^2 - 2t)/3, 8/3 at t = -2
    with pytest.raises(IntegrityError, match="not an integer"):
        interpolate_points([0, 1, 0])
    with pytest.raises(IntegrityError, match="not those of an integer polynomial"):
        extend_points([0, 1, 0])


# -- generation price ----------------------------------------------------------------


class ChoiceWeight(tuple):
    """A scan's choice weight as a factor, told apart from a copy's form."""


@pytest.mark.parametrize("d", range(2, 7))
def test_generation_price_bounds_the_bucket_terms(monkeypatch, d):
    touched = 0

    def muladd(acc, terms, factor):
        nonlocal touched
        if isinstance(factor, ChoiceWeight):
            touched += len(terms)
        return recursion_gen._terms_muladd(acc, terms, factor)

    counting = Ring(unit={0: 1}, scalar=lambda w: ChoiceWeight(((0, w),)),
                    muladd=muladd)
    monkeypatch.setattr(recursion_gen, "TERM_RING", counting)
    generate(d)
    assert 0 < touched <= sum(scan_terms(d))


def test_generation_scan_work_cap_admits_d6_and_refuses_d7():
    assert sum(scan_terms(6)) == 604_845 <= SCAN_WORK_CAP
    assert sum(scan_terms(7)) == 4_567_478
    with pytest.raises(CapExceeded, match="scan-work cap"):
        generate(7)
    with pytest.raises(CapExceeded, match="scan-work cap"):
        generate(10**20)


# -- ratio form -----------------------------------------------------------------------


def test_ratio_form_last_image_matches_reference_tail_polynomial(systems):
    # the all-dimer image in ratio variables (r0..r3 standing for the
    # classic alpha, beta, gamma, omega)
    images = ratio_form(systems(3))
    tail = images[4]
    assert tail.coefficient({}) == 1
    assert tail.coefficient({"r3": 1}) == 12
    assert tail.coefficient({"r3": 4, "r2": 4, "r1": 4}) == 64
    assert tail.coefficient({"r3": 4, "r2": 4, "r1": 3}) == 384


def test_ratio_form_first_image_carries_full_omega_power(systems):
    images = ratio_form(systems(3))
    head, reduced = images[0], reduced_ratio_form(systems(3))[0]
    # image = r3^4 * reduced, and the reduced polynomial has constant term 1
    r3_4 = Polynomial(ratio_varset(3), {(0, 0, 0, 4): 1})
    assert head == r3_4 * reduced
    assert reduced.coefficient({}) == 1
    assert reduced.coefficient({"r0": 4, "r1": 4, "r2": 4}) == 64


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ratio_form_consistent_at_all_ones(systems, d):
    sys_d = systems(d)
    ones_c = dict.fromkeys(class_varset(d), 1)
    ones_r = dict.fromkeys(ratio_varset(d), 1)
    from hanoi_dimer.multipoly import evaluate_int

    for poly, image in zip(sys_d.class_polys, ratio_form(sys_d)):
        assert evaluate_int(image, ones_r) == evaluate_int(poly, ones_c)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ratio_form_agrees_with_generic_substitution(systems, d):
    sys_d = systems(d)
    rvars = ratio_varset(d)
    cvars = class_varset(d)
    bindings = {}
    for k in range(d + 2):
        exps = tuple(1 if j >= k else 0 for j in range(d + 1))
        bindings[f"c{k}"] = Polynomial(rvars, {exps: 1})
    for poly, image in zip(sys_d.class_polys, ratio_form(sys_d)):
        assert substitute(poly, bindings).with_varset(rvars) == image


def test_golden_polynomials_evaluate_to_stage_one(systems):
    from hanoi_dimer.multipoly import evaluate_int

    golden = load_golden_d3()
    seed = {"c0": 1, "c1": 0, "c2": 1, "c3": 0, "c4": 3}
    assert evaluate_int(golden["f"], seed) == 1010
    assert evaluate_int(golden["M"], seed) == 25817


def test_serialize_parse_fixpoint_on_largest_golden_polynomial():
    from hanoi_dimer.multipoly import parse_polynomial, serialize

    golden = load_golden_d3()
    text = serialize(golden["h"])
    assert serialize(parse_polynomial(text, golden["h"].varset)) == text


# -- cache ------------------------------------------------------------------------------


def test_cache_roundtrip_bit_exact(tmp_path, systems):
    sys3 = systems(3)
    path = cache_path(tmp_path, 3)
    save_system(sys3, path)
    first = path.read_bytes()
    loaded = load_system(path)
    assert loaded == sys3
    save_system(loaded, path)
    assert path.read_bytes() == first
    assert first.startswith(b"# d=3 basis=c0..c4\nc0: ")


def test_saved_d6_system_matches_the_benchmark_fixture(tmp_path, systems):
    want = json.loads((REPO_DIR / "perfbench/fixtures/expected.json")
                      .read_text(encoding="utf-8"))["toolchain"]["gen-recursions"]
    path = tmp_path / want["cache_file"]
    save_system(systems(6), path)
    data = path.read_bytes()
    assert len(data) == want["cache_bytes"]
    assert hashlib.sha256(data).hexdigest() == want["cache_sha256"]


def test_interrupted_save_keeps_the_previous_file(tmp_path, monkeypatch, systems):
    path = cache_path(tmp_path, 3)
    save_system(systems(3), path)
    before = path.read_bytes()
    write_text = Path.write_text

    def cut_short(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", cut_short)
    # the write failure reaches the CLI as one error line, not a traceback
    with pytest.raises(HanoiDimerError, match=f"^cannot write cache file "
                       f"{re.escape(str(path))}: no space left on device$"):
        save_system(systems(4), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_system_rejects_another_dimension(tmp_path, systems):
    path = cache_path(tmp_path, 3)
    save_system(systems(4), path)
    assert load_system(path) == systems(4)
    with pytest.raises(CacheCorruption, match="d=4 system, not d=3"):
        load_system(path, 3)
