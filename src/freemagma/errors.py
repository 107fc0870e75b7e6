"""Exception types shared across the package."""

from __future__ import annotations


class FreeMagmaError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(FreeMagmaError):
    """A requested construction would need more memory than MEMORY_BUDGET."""


# Every construction that holds terms, flags or paths prices them from exact
# sizes and is refused, before it builds any, above this many bytes.
MEMORY_BUDGET = 1 << 30


def check_memory(what: str, estimate: int) -> None:
    """Refuse ``what`` when its estimate exceeds MEMORY_BUDGET bytes."""
    if estimate > MEMORY_BUDGET:
        over = f"over the memory budget of {MEMORY_BUDGET / 2**20:.1f} MiB"
        raise CapacityError(f"{what} would take an estimated {estimate / 2**20:.1f} MiB, {over}")


class TermParseError(FreeMagmaError, ValueError):
    """Malformed term text or bitstring encoding.

    Carries the offending input and the 0-based position where parsing failed.
    """

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"{reason} at position {position} in {text!r}")


class UnsupportedVariantError(FreeMagmaError, ValueError):
    """The operation is not defined for this generating-family variant."""


class ExactDivisionError(FreeMagmaError, ArithmeticError):
    """Internal error: an integer division that must be exact left a remainder."""
