"""Brute-force oracle: counts, constraints, and recursion cross-validation."""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hanoi_dimer import reference_values as ref
from hanoi_dimer.errors import CapExceeded, IntegrityError
from hanoi_dimer.evolve import evolve_to
from hanoi_dimer.hanoi_graph import build
from hanoi_dimer.errors import DEFAULT_MEMO_CAP, DEFAULT_ORACLE_VERTEX_CAP
from hanoi_dimer.matching_oracle import (
    CornerConstraint,
    CornerState,
    _pattern_counts,
    boundary_class_vector,
    count_constrained,
    count_matchings,
)

from .helpers import boundary_class_vector_by_subsets


def covered_vertex_sets(edges: list[tuple[int, int]]) -> list[frozenset[int]]:
    """Independent reference: grow matchings edge by edge, one entry per
    matching, each given by the vertices it covers."""
    matchings = [frozenset()]
    for u, v in edges:
        matchings += [
            m | {u, v} for m in matchings if u not in m and v not in m
        ]
    return matchings


def brute_matchings(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    return len(covered_vertex_sets(edges))


def inclusion_exclusion(graph, constraint: CornerConstraint) -> int:
    """Independent reference for dimer corners: sum over subsets T of the
    dimer-forced corners of (-1)^|T| N(G - monomers - T)."""
    monomers = [c for c, s in zip(graph.corners, constraint.states)
                if s is CornerState.MONOMER]
    dimers = [c for c, s in zip(graph.corners, constraint.states)
              if s is CornerState.DIMER]
    return sum(
        (-1) ** r * count_matchings(graph, monomers=[*monomers, *removed])
        for r in range(len(dimers) + 1)
        for removed in combinations(dimers, r)
    )


def test_complete_graph_k4():
    g = build(3, 0)
    assert count_matchings(g) == 10


def test_single_edge():
    assert count_matchings((2, [(0, 1)])) == 2


def test_th3_stage_one():
    assert count_matchings(build(3, 1)) == 25817


def test_th2_small_counts_match_edge_growth_oracle():
    for d, n in ((2, 0), (2, 1), (3, 0)):
        g = build(d, n)
        assert count_matchings(g) == brute_matchings(g.vertex_count, list(g.edges))


def test_vertex_cap():
    with pytest.raises(CapExceeded):
        count_matchings(build(2, 3))  # 81 vertices


def test_memo_cap_is_hard():
    with pytest.raises(CapExceeded):
        count_matchings(build(3, 1), memo_cap=4)


# -- constraints ------------------------------------------------------------------


def test_k4_all_corners_dimer():
    g = build(3, 0)
    constraint = CornerConstraint.parse("dddd")
    assert count_constrained(g, constraint) == 3


def test_k4_one_dimer_three_monomer():
    g = build(3, 0)
    constraint = CornerConstraint.parse("dmmm")
    assert count_constrained(g, constraint) == 0


def test_th4_stage_one_all_monomer():
    g = build(4, 1)
    constraint = CornerConstraint.parse("mmmmm")
    assert count_constrained(g, constraint) == 510980


def test_all_free_equals_unconstrained():
    for d, n in ((2, 1), (3, 1)):
        g = build(d, n)
        free = CornerConstraint(tuple(CornerState.FREE for _ in range(d + 1)))
        assert count_constrained(g, free) == count_matchings(g)


def test_constraint_never_increases_count():
    g = build(2, 1)
    free = count_matchings(g)
    for text in ("mff", "dff", "mdf", "mmd", "ddd", "mmm"):
        assert count_constrained(g, CornerConstraint.parse(text)) <= free


@pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_every_constraint_matches_inclusion_exclusion(d, n):
    g = build(d, n)
    for letters in product("mdf", repeat=d + 1):
        constraint = CornerConstraint.parse("".join(letters))
        assert count_constrained(g, constraint) == inclusion_exclusion(g, constraint)


def test_vertex_forced_both_ways_or_missing():
    path = (3, [(0, 1), (1, 2)])
    assert count_matchings(path, monomers=[1], dimers=[1]) == 0
    with pytest.raises(ValueError):
        count_matchings(path, dimers=[3])


def test_constraint_parse_rejects_garbage():
    with pytest.raises(ValueError):
        CornerConstraint.parse("mxd")


# -- class vectors -----------------------------------------------------------------


def test_boundary_vector_th3_stage_one():
    vec = boundary_class_vector(build(3, 1))
    assert vec.counts == (1010, 1242, 1556, 1983, 2571)


def test_boundary_vector_k4():
    assert boundary_class_vector(build(3, 0)).counts == (1, 0, 1, 0, 3)


def test_boundary_vector_k5():
    assert boundary_class_vector(build(4, 0)).counts == (1, 0, 1, 0, 3, 0)


@pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_one_pass_vector_matches_per_subset_runs(d, n):
    g = build(d, n)
    assert boundary_class_vector(g) == boundary_class_vector_by_subsets(g)


def test_relabeled_corners_break_corner_symmetry():
    # vertices 1 and 2 of TH_2(1) carry connector edges, vertex 0 does not
    g = build(2, 1)._replace(corners=(0, 1, 2))
    with pytest.raises(IntegrityError, match="corner-symmetry violation"):
        boundary_class_vector(g)


def test_class_vector_memo_cap_counts_corner_patterns():
    # the one-pass run memoizes the same masks as the unconstrained count,
    # each with several corner patterns, so a cap that admits every mask
    # once still refuses it
    g = build(3, 1)
    lo, hi = 1, 1 << 16  # smallest memo cap count_matchings admits
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            count_matchings(g, memo_cap=mid)
            hi = mid
        except CapExceeded:
            lo = mid + 1
    with pytest.raises(CapExceeded, match="raise it with --memo-cap"):
        boundary_class_vector(g, memo_cap=lo)


# the smallest memo cap each use of the elimination admits: the class vector,
# the all-dimer, all-monomer and "md" + free constraints, and M
SMALLEST_MEMO_CAPS = {
    (3, 1): (418, 84, 55, 83, 87),
    (2, 2): (260, 84, 74, 84, 86),
    (4, 1): (3766, 543, 363, 539, 547),
}


@pytest.mark.parametrize("d,n", sorted(SMALLEST_MEMO_CAPS))
def test_smallest_memo_cap_of_each_use(d, n):
    g = build(d, n)

    def constrained(text):
        constraint = CornerConstraint.parse(text)
        return lambda cap: count_constrained(g, constraint, memo_cap=cap)

    uses = (
        lambda cap: boundary_class_vector(g, memo_cap=cap),
        constrained("d" * (d + 1)),
        constrained("m" * (d + 1)),
        constrained("md" + "f" * (d - 1)),
        lambda cap: count_matchings(g, memo_cap=cap),
    )
    for run, smallest in zip(uses, SMALLEST_MEMO_CAPS[(d, n)]):
        run(smallest)
        with pytest.raises(CapExceeded, match="raise it with --memo-cap"):
            run(smallest - 1)


@pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_pruned_constraint_runs_match_the_tracked_corner_patterns(d, n):
    # count_constrained forces the corners; the class-vector run tracks them
    g = build(d, n)
    patterns = _pattern_counts(g, g.corners, vertex_cap=DEFAULT_ORACLE_VERTEX_CAP,
                               memo_cap=DEFAULT_MEMO_CAP)
    for letters in product("mdf", repeat=d + 1):
        agreeing = sum(
            count for pattern, count in patterns.items()
            if all(state == "f" or (state == "d") == bool(pattern >> i & 1)
                   for i, state in enumerate(letters))
        )
        constraint = CornerConstraint.parse("".join(letters))
        assert count_constrained(g, constraint) == agreeing, letters


def test_binomial_identity_on_oracle_vectors():
    for d, n in ((2, 0), (2, 1), (3, 0), (3, 1)):
        vec = boundary_class_vector(build(d, n))
        assert vec.m == sum(comb(d + 1, k) * c for k, c in enumerate(vec.counts))


@pytest.mark.parametrize(
    "d,n_max",
    [(2, 2), (3, 1), (4, 1), (5, 1)],
)
def test_oracle_equivalence_with_recursion(d, n_max):
    """The generated recursions reproduce brute-force counts stage by stage."""
    evolved = evolve_to(d, n_max)
    for n in range(n_max + 1):
        oracle_vec = boundary_class_vector(build(d, n))
        assert oracle_vec == evolved[n]


def test_oracle_d2_frozen_counts():
    vec = boundary_class_vector(build(2, 2))
    assert vec.counts == ref.CLASS_COUNTS_D2[2]
    assert vec.m == ref.TOTALS_D2[2]


# -- properties ---------------------------------------------------------------------


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in possible if draw(st.booleans())]
    return n, edges


@settings(max_examples=60)
@given(small_graphs())
def test_deletion_recursion(graph):
    """N(G) = N(G - e) + N(G - {u, v}) for every edge e = (u, v)."""
    n, edges = graph
    total = count_matchings((n, edges))
    for e in edges:
        u, v = e
        without_edge = [f for f in edges if f != e]
        without_ends = [f for f in edges if u not in f and v not in f]
        assert total == count_matchings((n, without_edge)) + count_matchings(
            (n, without_ends)
        )


@settings(max_examples=30)
@given(small_graphs())
def test_count_matches_edge_growth_oracle(graph):
    n, edges = graph
    assert count_matchings((n, edges)) == brute_matchings(n, edges)


@st.composite
def constrained_graphs(draw):
    n, edges = draw(small_graphs())
    states = draw(st.lists(st.sampled_from("mdf"), min_size=n, max_size=n))
    monomers = {v for v, state in enumerate(states) if state == "m"}
    dimers = {v for v, state in enumerate(states) if state == "d"}
    return n, edges, monomers, dimers


@settings(max_examples=60)
@given(constrained_graphs())
def test_forced_vertices_match_edge_growth_oracle(case):
    n, edges, monomers, dimers = case
    want = sum(1 for covered in covered_vertex_sets(edges)
               if not covered & monomers and dimers <= covered)
    assert count_matchings((n, edges), monomers=monomers, dimers=dimers) == want
