"""Graph construction: sizes, degrees, self-similarity, connector layout."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hanoi_dimer.errors import CapExceeded
from hanoi_dimer.hanoi_graph import (
    build,
    connector_edges,
    edge_csv,
    expected_edge_count,
    expected_vertex_count,
)


def test_build_2_1_sizes():
    g = build(2, 1)
    assert g.vertex_count == 9
    assert len(g.edges) == 12
    assert len(g.corners) == 3


def test_build_3_0_is_complete_graph():
    g = build(3, 0)
    assert g.vertex_count == 4
    assert len(g.edges) == 6
    assert set(g.edges) == set(combinations(range(4), 2))


def test_build_4_1_against_formulas():
    # one-line independent check of the closed forms
    assert expected_vertex_count(4, 1) == 5**2 == 25
    assert expected_edge_count(4, 1) == 5 * (25 - 1) // 2 == 60
    g = build(4, 1)
    assert g.vertex_count == 25
    assert len(g.edges) == 60


@pytest.mark.parametrize("d,n", [(2, 0), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_size_formulas_and_degree_profile(d, n):
    g = build(d, n)
    assert g.vertex_count == expected_vertex_count(d, n)
    assert len(g.edges) == expected_edge_count(d, n)
    # corners have degree d, everything else degree d+1
    degree = Counter(v for edge in g.edges for v in edge)
    for c in g.corners:
        assert degree[c] == d
    others = set(range(g.vertex_count)) - set(g.corners)
    assert all(degree[v] == d + 1 for v in others)
    # simple graph: no loops, no parallel edges
    assert all(u < v for u, v in g.edges)
    assert len(set(g.edges)) == len(g.edges)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_copies_are_index_shifted_previous_stage(d, n):
    g = build(d, n)
    prev = build(d, n - 1)
    block = prev.vertex_count
    for copy in range(d + 1):
        lo, hi = copy * block, (copy + 1) * block
        inner = [(u - lo, v - lo) for u, v in g.edges if lo <= u < hi and lo <= v < hi]
        assert sorted(inner) == sorted(prev.edges)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_connector_edges_are_vertex_disjoint(d, n):
    g = build(d, n)
    prev = build(d, n - 1)
    block = prev.vertex_count
    cross = [(u, v) for u, v in g.edges if u // block != v // block]
    assert len(cross) == len(connector_edges(d))
    seen = set()
    for u, v in cross:
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_connector_edge_counts():
    assert len(connector_edges(3)) == 6
    assert len(connector_edges(2)) == 3
    assert len(connector_edges(4)) == 10


def test_connector_slots_unique():
    for d in (2, 3, 4, 5):
        slots = set()
        for (i, j), (a, b) in connector_edges(d):
            assert (i, a) not in slots and (j, b) not in slots
            slots.update({(i, a), (j, b)})


def test_vertex_cap_refusal_reports_size():
    with pytest.raises(CapExceeded) as err:
        build(2, 15, vertex_cap=10**6)
    assert str(3**16) in str(err.value)


@pytest.mark.parametrize("d,n", [(2, 10**7), (10**6, 10**5)])
def test_vertex_cap_far_past_refuses_by_exponent(d, n):
    with pytest.raises(CapExceeded, match=r"at least 2\^\d+ vertices"):
        build(d, n)


def test_edge_csv_header_and_rows():
    g = build(2, 0)
    text = edge_csv(g)
    lines = text.splitlines()
    assert lines[0] == "# d=2 n=0 corners=0,1,2"
    assert lines[1:] == ["0,1", "0,2", "1,2"]


@given(st.integers(2, 5), st.integers(0, 2))
def test_build_is_deterministic(d, n):
    assert build(d, n) == build(d, n)
