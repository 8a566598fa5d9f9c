"""Brute-force exact matching counts with per-corner constraints.

This is the independent ground truth the generated recursion systems are
validated against.  One memoized elimination, _pattern_counts, does all the
counting: it removes the lowest-index surviving vertex v of the bitmask
state, which either stays unmatched or is matched to one of its surviving
neighbors, and the copy-major vertex order of HanoiGraph keeps the
reachable state count small on these self-similar graphs.  Its memo maps
each surviving mask to a dict from the bitmask of tracked corners a
matching covers to the number of such matchings: the unmatched branch
takes the child's dict as it is, and matching v to u adds the corner bits
of v and u to every pattern of the child.  Constraints act inside the same
run: monomer-forced vertices are deleted up front, and a dimer-forced
vertex never takes the unmatched branch.  The forced set is fixed for the
whole call, so the surviving mask stays a sound memo key.

It has three uses.  count_matchings (and through it count_constrained, with
the corner constraints as forced vertices) tracks no corner and reads the
empty pattern's count.  boundary_class_vector tracks every corner, so one
run gives the count for every corner subset; M comes from a separate
count_matchings run, so the binomial identity checked by
BoundaryClassVector compares two independent computations.  The memo cap
counts the stored (mask, pattern) entries, at least one per mask.

Every call owns a private memo table, so concurrent calls are independent.
Not meant to scale past a few dozen vertices; the recursion system is the
scalable path.  The elimination recurses once per eliminated vertex, so a
graph with more vertices than recursion_ceiling() is refused with
CapExceeded before any count, whatever the vertex cap.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import (
    DEFAULT_MEMO_CAP,
    DEFAULT_ORACLE_VERTEX_CAP,
    CapExceeded,
    IntegrityError,
)
from .evolve import BoundaryClassVector
from .hanoi_graph import HanoiGraph

# frames of the recursion limit kept for the elimination's callers
CALLER_FRAMES = 200


class CornerState(Enum):
    MONOMER = "m"  # corner must stay unmatched
    DIMER = "d"  # corner must be matched
    FREE = "f"


class CornerConstraint(NamedTuple):
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


def recursion_ceiling() -> int:
    """The most vertices the elimination can remove, one frame each.

    Python's recursion limit less the frames left to their callers.
    """
    return sys.getrecursionlimit() - CALLER_FRAMES


def _check_vertex_cap(vertex_count: int, vertex_cap: int) -> None:
    if vertex_count > vertex_cap:
        raise CapExceeded(
            f"oracle refuses {vertex_count} vertices, above the cap of "
            f"{vertex_cap}; raise it with --oracle-vertex-cap"
        )
    ceiling = recursion_ceiling()
    if vertex_count > ceiling:
        raise CapExceeded(
            f"oracle refuses {vertex_count} vertices: it recurses once per "
            f"vertex, past its fixed ceiling of {ceiling} (the interpreter's "
            f"recursion limit {sys.getrecursionlimit()} less {CALLER_FRAMES} "
            f"frames for its callers)"
        )


def check_stage_vertex_cap(d: int, n: int, vertex_cap: int) -> None:
    """CapExceeded if the oracle would refuse TH_d(n), priced at its
    (d+1)^(n+1) vertices before it is built."""
    # (d+1)^(n+1) >= 2^floor_bits: far past the cap, form no such power
    floor_bits = (n + 1) * ((d + 1).bit_length() - 1)
    if floor_bits >= vertex_cap.bit_length() + 64:
        raise CapExceeded(
            f"oracle refuses TH_{d}({n}), which has at least 2^{floor_bits} "
            f"vertices, above the cap of {vertex_cap}; raise it with "
            "--oracle-vertex-cap"
        )
    _check_vertex_cap((d + 1) ** (n + 1), vertex_cap)


def _adjacency_masks(vertex_count: int, edges, removed) -> list[int]:
    """Neighbor bitmask per vertex, edges at a removed vertex left out."""
    adjacency = [0] * vertex_count
    for u, v in edges:
        if u in removed or v in removed:
            continue
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return adjacency


_NO_CORNERS = {0: 1}  # the empty mask: one matching, covering no corner


def _pattern_counts(graph, corners=(), *, monomers: Iterable[int] = (),
                    dimers: Iterable[int] = (), vertex_cap: int,
                    memo_cap: int) -> dict[int, int]:
    """Matchings of the graph keyed by the tracked corners they cover.

    Bit i of a key is set when vertex corners[i] is covered; a pattern that
    no matching has is absent.  Only matchings that leave every vertex of
    ``monomers`` unmatched and cover every vertex of ``dimers`` are counted.
    memo_cap bounds the stored (mask, pattern) entries, at least one per mask.
    """
    vertex_count, edges = _graph_data(graph)
    _check_vertex_cap(vertex_count, vertex_cap)
    removed = frozenset(monomers)
    forced_set = frozenset(dimers)
    for v in removed | forced_set:
        if not 0 <= v < vertex_count:
            raise ValueError(f"constrained vertex {v} is not in the graph")
    if removed & forced_set:
        return {}  # no matching both avoids and covers a vertex
    forced = sum(1 << v for v in forced_set)
    adjacency = _adjacency_masks(vertex_count, edges, removed)
    corner_bits = [0] * vertex_count
    for i, corner in enumerate(corners):
        corner_bits[corner] |= 1 << i

    memo: dict[int, dict[int, int]] = {}
    entries = 0

    def patterns(mask: int) -> dict[int, int]:
        nonlocal entries
        if mask == 0:
            return _NO_CORNERS
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v_bit = mask & -mask
        v = v_bit.bit_length() - 1
        rest = mask ^ v_bit
        # v unmatched: the child's patterns as they are
        total = {} if v_bit & forced else dict(patterns(rest))
        neighbors = adjacency[v] & rest
        while neighbors:
            u_bit = neighbors & -neighbors
            # v matched to u: neither is in the child's mask, so their bits are new
            gained = corner_bits[v] | corner_bits[u_bit.bit_length() - 1]
            for pattern, count in patterns(rest ^ u_bit).items():
                key = pattern | gained
                total[key] = total.get(key, 0) + count
            neighbors ^= u_bit
        entries += len(total) or 1
        if entries > memo_cap:
            raise CapExceeded(
                f"matching memo table hit the cap of {memo_cap} entries; "
                "raise it with --memo-cap")
        memo[mask] = total
        return total

    return patterns(((1 << vertex_count) - 1) ^ sum(1 << v for v in removed))


def count_matchings(graph, *, monomers: Iterable[int] = (),
                    dimers: Iterable[int] = (),
                    vertex_cap: int = DEFAULT_ORACLE_VERTEX_CAP,
                    memo_cap: int = DEFAULT_MEMO_CAP) -> int:
    """Exact number of matchings (independent edge subsets), empty one included.

    Only matchings that leave every vertex of ``monomers`` unmatched and
    cover every vertex of ``dimers`` are counted.
    """
    return _pattern_counts(graph, monomers=monomers, dimers=dimers,
                           vertex_cap=vertex_cap, memo_cap=memo_cap).get(0, 0)


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

    The counts come from one run that tracks every corner and M from an
    unconstrained count_matchings run.  For every k, each k-subset of corners
    must give the same count; a disagreement would indicate a construction
    bug and raises IntegrityError.
    """
    d = graph.d
    patterns = _pattern_counts(graph, graph.corners, vertex_cap=vertex_cap,
                               memo_cap=memo_cap)
    by_size: list[set[int]] = [set() for _ in range(d + 2)]
    for pattern in range(1 << (d + 1)):
        by_size[pattern.bit_count()].add(patterns.get(pattern, 0))
    counts = []
    for k, seen in enumerate(by_size):
        if len(seen) != 1:
            raise IntegrityError(
                f"corner-symmetry violation for k={k} on TH_{d}({graph.n}): "
                f"distinct counts {sorted(seen)}"
            )
        counts.append(seen.pop())
    m = count_matchings(graph, vertex_cap=vertex_cap, memo_cap=memo_cap)
    return BoundaryClassVector(d=d, n=graph.n, counts=tuple(counts), m=m)
