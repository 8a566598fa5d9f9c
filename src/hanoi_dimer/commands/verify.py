"""verify: the generated system and the transfer scan against the oracle,
stage by stage, and the cache file against the generated system."""

from __future__ import annotations

import argparse
import sys

from .. import cli
from ..errors import CacheCorruption


def run(args: argparse.Namespace) -> int:
    (check_generation_work, check_stage_vertex_cap, evolve_to, generate,
     cache_path, line_labels, load_system, save_system, apply_system,
     boundary_class_vector, build) = cli._library(
        "check_generation_work", "check_stage_vertex_cap", "evolve_to",
        "generate", "cache_path", "line_labels", "load_system", "save_system",
        "apply_system", "boundary_class_vector", "build")
    # every cap but the memo cap refuses before any work: generating the
    # system, the oracle on its largest graph, TH_d(n_max), and then the
    # scan's own caps
    check_generation_work(args.d)
    check_stage_vertex_cap(args.d, args.n_max, args.oracle_vertex_cap)
    scan = evolve_to(args.d, args.n_max, digit_cap=args.digit_cap)
    system = generate(args.d)
    # the cache file must hold the generated system: a missing file is
    # written, a corrupt one rewritten, and one that loads to another system
    # is refused and left as it is (the stages below cannot see every term:
    # each odd class count is 0 at stage 0)
    path = cache_path(cli.resolve_cache_dir(args.cache_dir), args.d)
    loaded = None
    if path.exists():
        try:
            loaded = load_system(path, args.d)
        except CacheCorruption as err:
            print(f"warning: regenerating corrupt recursion cache: {err}",
                  file=sys.stderr)
    if loaded is None:
        save_system(system, path)
    else:
        for label, got, want in zip(line_labels(args.d),
                                    loaded.class_polys + (loaded.m_poly,),
                                    system.class_polys + (system.m_poly,)):
            if got != want:
                cli._emit(f"cache: MISMATCH {label}: the loaded polynomial "
                          "differs from the generated one")
                return 1
    # the generated system, evaluated term by term on the scan's stages (equal
    # to its own trajectory up to the first mismatch), and the transfer scan
    sources = (
        ("recursion", scan[:1] + [apply_system(system, v) for v in scan[:-1]]),
        ("scan", scan),
    )
    for n in range(args.n_max + 1):
        reference = boundary_class_vector(
            build(args.d, n), vertex_cap=args.oracle_vertex_cap,
            memo_cap=args.memo_cap)
        for label, vectors in sources:
            got = vectors[n]
            if got == reference:
                continue
            for k, (count, want) in enumerate(zip(got.counts, reference.counts)):
                if count != want:
                    cli._emit(f"stage {n}: MISMATCH c{k}: {label} {count}, "
                              f"oracle {want}")
                    break
            else:
                cli._emit(f"stage {n}: MISMATCH M: {label} {got.m}, "
                          f"oracle {reference.m}")
            return 1
        cli._emit(f"stage {n}: OK ({args.d + 2} class counts + total)")
    return 0
