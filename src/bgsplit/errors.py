"""Exception hierarchy shared by all bgsplit modules.

Errors fall into three groups: input errors (parsing, shape),
domain-precondition errors (the input is well formed but outside an
operation's mathematical domain), and internal consistency failures (a
certified computation failed its own check, which indicates a defect and
is surfaced loudly).  Each class carries its group's CLI exit code (2, 3,
4) and the label the CLI prints before its message on stderr, so a new
error only has to pick its base class.
"""

from math import log10


class BGSplitError(Exception):
    """Base class for all library errors; by itself an internal failure.
    Carries the message and, for an error in input text, its 1-based line
    and column numbers, which the text of the error ends with."""

    exit_code = 4
    label = "internal consistency failure"

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {at}" for name, at in (("line", line), ("column", column))
                          if at is not None)
        super().__init__(f"{message} ({where})" if where else message)


class ParseError(BGSplitError):
    """Malformed input text, located by line and column where known."""

    exit_code = 2
    label = "parse error"


class DimensionMismatch(BGSplitError):
    """Matrix or vector shapes do not agree."""

    exit_code = 2
    label = "parse error"


class _DomainError(BGSplitError):
    """Well-formed input outside an operation's domain or work budget."""

    exit_code = 3
    label = "domain error"


class NotInvertibleOverLaurentRing(_DomainError):
    """Determinant is not a unit c*x^t of the Laurent polynomial ring."""


class NotInvertible(_DomainError):
    """Singular matrix over a field (rationals or rational functions)."""


class InvalidBundle(_DomainError):
    """Transition matrix is not a bundle datum (non-unit determinant)."""


class WorkBudgetExceeded(_DomainError):
    """Valid input whose computation exceeds a documented work budget."""


def decimal(value: int) -> str:
    """An integer for a message: its decimal digits, or its order of
    magnitude when it is past the digit limit of str()."""
    try:
        return str(value)
    except ValueError:
        digits = int(abs(value).bit_length() * log10(2))
        return f"about {'-' if value < 0 else ''}10^{digits}"


class InternalSearchExhausted(BGSplitError):
    """A certified search failed at its configured bound.

    Must not occur for valid input; treated as a defect, not a user error.
    """


class ResonantExponents(_DomainError):
    """Residue eigenvalues differ by a positive integer within the
    requested truncation order, so the Frobenius recursion is singular."""


class NotFirstKind(_DomainError):
    """The point is an irregular (second-kind) singularity."""


class NotFuchsian(_DomainError):
    """The equation has a singularity that is not of the first kind."""
