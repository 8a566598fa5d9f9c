from __future__ import annotations

import pytest

from hanoi_dimer.evolve import evolve_to
from hanoi_dimer.recursion_gen import generate


@pytest.fixture(scope="session")
def systems():
    """Generated recursion systems, keyed by dimension."""
    cache = {}

    def get(d: int):
        if d not in cache:
            cache[d] = generate(d)
        return cache[d]

    return get


@pytest.fixture(scope="session")
def trajectories():
    """Evolved stage lists, keyed by (d, n_max)."""
    cache = {}

    def get(d: int, n_max: int):
        have = [n for (dd, n) in cache if dd == d and n >= n_max]
        if have:
            return cache[(d, min(have))][: n_max + 1]
        cache[(d, n_max)] = evolve_to(d, n_max)
        return cache[(d, n_max)]

    return get
