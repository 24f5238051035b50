"""Exception types shared across the package."""


class KafwError(Exception):
    """Base class for all library-specific errors."""


class DomainError(KafwError, ValueError):
    """An argument lies outside the range the operation accepts."""


class DomainTooLarge(KafwError):
    """An exhaustive enumeration was requested for a width beyond the supported cap."""


class ScheduleArityMismatch(KafwError):
    """A key schedule's round-key count does not match the cipher's round count."""


class ArityMismatch(KafwError):
    """A check or transformation was applied to a schedule of the wrong arity."""


class TooFewRounds(KafwError):
    """The construction or transformation needs more rounds than were supplied."""


class UnknownName(KafwError):
    """Unrecognized builtin schedule name."""


class OddN(KafwError):
    """The requested schedule needs an even half-block width."""


class NotAffine(KafwError):
    """An operation requiring affine sub-key maps was given a non-affine one."""


class NoWeakDelta(KafwError):
    """No nonzero key offset satisfies the attack's matrix-difference condition."""


class QueryBudgetExceeded(KafwError):
    """A distinguisher exceeded its declared oracle query budget."""


class RedundantQuery(KafwError):
    """The same (offset, direction, block) triple was sent to the related-key oracle twice."""


class ParseError(KafwError):
    """Schedule file syntax error, with 1-based source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class BadMatrix(KafwError):
    """Matrix literal with the wrong row count or an out-of-range row."""
