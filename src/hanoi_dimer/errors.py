"""Exception types shared across the package.

The CLI maps these onto exit codes: integrity/mismatch failures exit 1,
resource-cap refusals exit 3.  Usage errors exit 2: argparse rejects
malformed flags, and cli.main turns a ValueError (an out-of-range flag
value or argument) into exit 2.
"""


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


class PolynomialParseError(HanoiDimerError):
    """Malformed polynomial text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CacheCorruption(HanoiDimerError):
    """A cached recursion-system file failed validation on load."""
