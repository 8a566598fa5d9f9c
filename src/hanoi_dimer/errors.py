"""Exception types and the default resource caps shared across the package.

The CLI maps these onto exit codes: integrity/mismatch failures exit 1,
resource-cap refusals exit 3.  Usage errors exit 2: argparse rejects
malformed flags, and cli.main turns a ValueError (an out-of-range flag
value or argument) into exit 2.

The defaults live here, beside CapExceeded, so that the CLI parser prints
them without importing the library modules that apply them.
"""

# hanoi_graph.build: vertices of an explicitly built TH_d(n)
DEFAULT_VERTEX_CAP = 10**6
# matching_oracle: vertices the brute-force counters accept, memo entries
DEFAULT_ORACLE_VERTEX_CAP = 40
DEFAULT_MEMO_CAP = 1 << 26
# evolve.evolve_to: predicted digits of the last stage's exact counts;
# entropy.bounds: digits the steps of each walk make, (d+1)*bits*log10(2) a step
DEFAULT_DIGIT_CAP = 10**7
# appendix_check: terms of a certificate's expansion
DEFAULT_TERM_BUDGET = 10**7
# entropy: decimal digits of the bounds' working precision
DEFAULT_PRECISION = 160


class HanoiDimerError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(HanoiDimerError):
    """A resource cap (vertices, memo entries, digits, terms, scan work,
    the oracle's recursion ceiling) would be exceeded.  The message names
    the cap and, for each cap but the fixed scan-work cap and recursion
    ceiling, the flag that raises it."""


class IntegrityError(HanoiDimerError):
    """An internal consistency invariant failed.  This signals a bug in
    construction, generation, or arithmetic, never bad user input."""


class UnboundVariableError(HanoiDimerError):
    """A polynomial evaluation point left a variable unbound."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class CacheCorruption(HanoiDimerError):
    """A cached recursion-system file failed validation on load."""
