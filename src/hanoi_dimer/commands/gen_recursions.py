"""gen-recursions: generate a recursion system and write its cache file."""

from __future__ import annotations

import argparse

from .. import cli


def run(args: argparse.Namespace) -> int:
    generate, save_system, cache_path = cli._library("generate", "save_system",
                                                     "cache_path")
    system = generate(args.d)
    path = cache_path(cli.resolve_cache_dir(args.cache_dir), args.d)
    save_system(system, path)
    sizes = ", ".join(str(p.term_count()) for p in system.class_polys)
    cli._emit(f"wrote {path}")
    cli._emit(f"class polynomial terms: {sizes}; total polynomial terms: "
              f"{system.m_poly.term_count()}")
    return 0
