"""Exact dimer-monomer enumeration and certified entropy bounds on Tower of
Hanoi graphs.

The public names live in their modules (``hanoi_dimer.evolve``,
``hanoi_dimer.entropy``, ...); importing the package loads none of them.
"""

__version__ = "0.1.0"
