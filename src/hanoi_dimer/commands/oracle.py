"""oracle: brute-force counts on the built graph, or its edge list."""

from __future__ import annotations

import argparse

from .. import cli


def run(args: argparse.Namespace) -> int:
    build, edge_csv, CornerConstraint, count_constrained, boundary_class_vector = (
        cli._library("build", "edge_csv", "CornerConstraint", "count_constrained",
                     "boundary_class_vector"))
    graph = build(args.d, args.n, vertex_cap=args.vertex_cap)
    if args.emit_graph:
        cli._emit(edge_csv(graph).removesuffix("\n"))
        return 0
    if args.constraint is not None:
        constraint = CornerConstraint.parse(args.constraint)
        value = count_constrained(graph, constraint,
                                  vertex_cap=args.oracle_vertex_cap,
                                  memo_cap=args.memo_cap)
        cli._emit_json({
            "d": args.d, "n": args.n,
            "constraint": args.constraint, "count": str(value),
        })
        return 0
    vector = boundary_class_vector(graph, vertex_cap=args.oracle_vertex_cap,
                                   memo_cap=args.memo_cap)
    cli._emit_json({
        "d": args.d, "n": args.n, "M": str(vector.m),
        "c": [str(c) for c in vector.counts],
    })
    return 0
