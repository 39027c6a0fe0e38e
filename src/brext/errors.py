"""Exception types shared across the package."""


class BrextError(Exception):
    """Base class for all package errors."""


class OrderTooLarge(BrextError):
    """Group order exceeds the validation cap, MAX_ORDER."""


class MalformedTable(BrextError):
    """Cayley table dimensions or entries are structurally broken."""


class MalformedMap(BrextError):
    """Homomorphism map has the wrong length or out-of-range entries."""


class NotAGroup(BrextError):
    """A level has an idempotent other than its identity, or an element with no inverse."""


class IndexOutOfRange(BrextError, IndexError):
    """Element index outside a group's carrier."""


class MissingBond(BrextError):
    """No bonding homomorphism recorded for a requested pair of levels."""


class ZeroNotAdjoined(BrextError):
    """Zero element used in a system built without an adjoined zero."""


class WindowTooLarge(BrextError):
    """Exhaustive scan requested over a window larger than the cap."""


class WitnessVerificationFailed(BrextError):
    """Internal guard: a constructed witness failed re-verification."""


class MalformedDescriptor(BrextError):
    """Zero-neighborhood descriptor of unknown kind."""


class ParseError(BrextError):
    """Unreadable config file or element literal."""


class ValidationFailed(BrextError):
    """A loaded system failed structural validation.

    Carries the full list of violations, so callers can surface every one,
    and the name the loaded system would have carried.
    """

    def __init__(self, violations, name):
        self.violations, self.name = violations, name
        first = violations[0] if violations else "unknown"
        more = len(violations) - 1
        super().__init__(first if more <= 0 else f"{first} (+{more} more)")
