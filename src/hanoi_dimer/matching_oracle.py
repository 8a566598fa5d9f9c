"""Brute-force exact matching counts with per-corner constraints.

This is the independent ground truth the generated recursion systems are
validated against.  The core counter eliminates the lowest-index surviving
vertex v of the bitmask state: either v stays unmatched, or it is matched
to one of its surviving neighbors.  Memoization is keyed by the surviving
mask; the copy-major vertex order of HanoiGraph keeps the reachable state
count small on these self-similar graphs.

Corner constraints act inside that recursion, so a constrained count is a
single counter run: monomer-forced vertices are deleted up front, and a
dimer-forced vertex never takes the unmatched branch.  The forced set is
fixed for the whole call, so the surviving mask still determines the count
and stays a sound memo key.

Every call owns a private memo table, so concurrent calls are independent.
Not meant to scale past a few dozen vertices; the recursion system is the
scalable path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import CapExceeded, IntegrityError
from .evolve import BoundaryClassVector
from .hanoi_graph import HanoiGraph

DEFAULT_ORACLE_VERTEX_CAP = 40
DEFAULT_MEMO_CAP = 1 << 26


class CornerState(Enum):
    MONOMER = "m"  # corner must stay unmatched
    DIMER = "d"  # corner must be matched
    FREE = "f"


@dataclass(frozen=True)
class CornerConstraint:
    """One state per corner; length must equal d+1."""

    states: tuple[CornerState, ...]

    @classmethod
    def parse(cls, text: str) -> CornerConstraint:
        try:
            return cls(tuple(CornerState(ch) for ch in text))
        except ValueError:
            raise ValueError(
                f"constraint {text!r} must use only 'm', 'd', 'f'"
            ) from None


def _graph_data(graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    if isinstance(graph, HanoiGraph):
        return graph.vertex_count, graph.edges
    vertex_count, edges = graph
    return vertex_count, tuple(edges)


def count_matchings(graph, *, monomers: Iterable[int] = (),
                    dimers: Iterable[int] = (),
                    vertex_cap: int = DEFAULT_ORACLE_VERTEX_CAP,
                    memo_cap: int = DEFAULT_MEMO_CAP) -> int:
    """Exact number of matchings (independent edge subsets), empty one included.

    Only matchings that leave every vertex of ``monomers`` unmatched and
    cover every vertex of ``dimers`` are counted.
    """
    vertex_count, edges = _graph_data(graph)
    if vertex_count > vertex_cap:
        raise CapExceeded(
            f"oracle refuses {vertex_count} vertices, above the cap of "
            f"{vertex_cap}; raise it with --oracle-vertex-cap"
        )
    removed = frozenset(monomers)
    forced_set = frozenset(dimers)
    for v in removed | forced_set:
        if not 0 <= v < vertex_count:
            raise ValueError(f"constrained vertex {v} is not in the graph")
    if removed & forced_set:
        return 0  # no matching both avoids and covers a vertex
    forced = sum(1 << v for v in forced_set)
    adjacency = [0] * vertex_count
    alive = 0
    for v in range(vertex_count):
        if v not in removed:
            alive |= 1 << v
    for u, v in edges:
        if u in removed or v in removed:
            continue
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u

    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v_bit = mask & -mask
        v = v_bit.bit_length() - 1
        rest = mask ^ v_bit
        total = 0 if v_bit & forced else count(rest)  # v unmatched
        neighbors = adjacency[v] & rest
        while neighbors:
            u_bit = neighbors & -neighbors
            total += count(rest ^ u_bit)  # v matched to u
            neighbors ^= u_bit
        if len(memo) >= memo_cap:
            raise CapExceeded(
                f"matching memo table hit the cap of {memo_cap} entries; "
                "raise it with --memo-cap"
            )
        memo[mask] = total
        return total

    return count(alive)


def count_constrained(graph, constraint: CornerConstraint, *,
                      vertex_cap: int = DEFAULT_ORACLE_VERTEX_CAP,
                      memo_cap: int = DEFAULT_MEMO_CAP) -> int:
    """Matchings honoring the per-corner monomer/dimer/free constraints."""
    if not isinstance(graph, HanoiGraph):
        raise TypeError("corner constraints need a HanoiGraph with labeled corners")
    if len(constraint.states) != graph.d + 1:
        raise ValueError(
            f"constraint has {len(constraint.states)} entries, graph has "
            f"{graph.d + 1} corners"
        )

    def corners(state: CornerState) -> list[int]:
        return [c for c, s in zip(graph.corners, constraint.states) if s is state]

    return count_matchings(
        graph, monomers=corners(CornerState.MONOMER),
        dimers=corners(CornerState.DIMER),
        vertex_cap=vertex_cap, memo_cap=memo_cap,
    )


def boundary_class_vector(graph: HanoiGraph, *,
                          vertex_cap: int = DEFAULT_ORACLE_VERTEX_CAP,
                          memo_cap: int = DEFAULT_MEMO_CAP) -> BoundaryClassVector:
    """All d+2 class counts of a built graph, with the symmetry cross-check.

    For every k, each k-subset of corners must give the same count; a
    disagreement would indicate a construction bug and raises IntegrityError.
    """
    d = graph.d
    counts = []
    for k in range(d + 2):
        seen: set[int] = set()
        for chosen in combinations(range(d + 1), k):
            states = tuple(
                CornerState.DIMER if i in chosen else CornerState.MONOMER
                for i in range(d + 1)
            )
            seen.add(count_constrained(graph, CornerConstraint(states),
                                       vertex_cap=vertex_cap, memo_cap=memo_cap))
        if len(seen) != 1:
            raise IntegrityError(
                f"corner-symmetry violation for k={k} on TH_{d}({graph.n}): "
                f"distinct counts {sorted(seen)}"
            )
        counts.append(seen.pop())
    m = count_matchings(graph, vertex_cap=vertex_cap, memo_cap=memo_cap)
    return BoundaryClassVector(d=d, n=graph.n, counts=tuple(counts), m=m)
