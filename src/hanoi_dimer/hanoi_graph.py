"""Tower of Hanoi graphs TH_d(n) with labeled outmost vertices.

Stage 0 is the complete graph on d+1 vertices.  Stage n+1 joins d+1 copies
of stage n: copy i keeps its corner i as the new global corner i, and each
copy pair i<j is tied by a single edge between corner j of copy i and corner
i of copy j.  Vertex indexing is copy-major (index = copy * (d+1)^n + local),
so corner positions are computable in O(1) and identical across runs.

Graphs are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import DEFAULT_VERTEX_CAP, CapExceeded


class HanoiGraph(NamedTuple):
    d: int
    n: int
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs u < v, list sorted
    corners: tuple[int, ...]  # d+1 outmost vertices, degree d each


def connector_edges(d: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The C(d+1,2) joins used at every composition step.

    Entry ((i, j), (a, b)) ties corner a of copy i to corner b of copy j.
    No two entries share a (copy, corner) slot, hence no two connector
    edges share a vertex -- the matching sum may range over all subsets.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    return [((i, j), (j, i)) for i, j in combinations(range(d + 1), 2)]


def build(d: int, n: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> HanoiGraph:
    """Construct TH_d(n) explicitly.

    Refuses when (d+1)^(n+1) exceeds vertex_cap; raise the cap (CLI:
    --vertex-cap) for bigger instances.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    if n < 0:
        raise ValueError("stage n must be >= 0")
    # (d+1)^(n+1) >= 2^floor_bits: far past the cap, form no such power
    floor_bits = (n + 1) * ((d + 1).bit_length() - 1)
    if floor_bits >= vertex_cap.bit_length() + 64:
        raise CapExceeded(
            f"TH_{d}({n}) has at least 2^{floor_bits} vertices, above the cap "
            f"of {vertex_cap}; raise it with --vertex-cap"
        )
    total = (d + 1) ** (n + 1)
    if total > vertex_cap:
        raise CapExceeded(
            f"TH_{d}({n}) has {total} vertices, above the cap of {vertex_cap}; "
            "raise it with --vertex-cap"
        )

    size = d + 1
    edges = [(i, j) for i, j in combinations(range(d + 1), 2)]
    corners = list(range(d + 1))
    for _ in range(n):
        joined = []
        for copy in range(d + 1):
            offset = copy * size
            joined.extend((u + offset, v + offset) for u, v in edges)
        for (i, j), (a, b) in connector_edges(d):
            u = i * size + corners[a]
            v = j * size + corners[b]
            joined.append((u, v) if u < v else (v, u))
        corners = [i * size + corners[i] for i in range(d + 1)]
        edges = joined
        size *= d + 1

    edges.sort()
    return HanoiGraph(d=d, n=n, vertex_count=size, edges=tuple(edges),
                      corners=tuple(corners))


def expected_vertex_count(d: int, n: int) -> int:
    return (d + 1) ** (n + 1)


def expected_edge_count(d: int, n: int) -> int:
    return (d + 1) * ((d + 1) ** (n + 1) - 1) // 2


def edge_csv(g: HanoiGraph) -> str:
    """Edge list as CSV ``u,v`` rows under a header comment line."""
    corners = ",".join(str(c) for c in g.corners)
    lines = [f"# d={g.d} n={g.n} corners={corners}"]
    lines.extend(f"{u},{v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
