"""Exception hierarchy shared by all bgsplit modules.

Errors fall into three groups, mirrored by the CLI exit codes: input
errors (parsing, shape), domain-precondition errors (the input is well
formed but outside an operation's mathematical domain), and internal
consistency failures (a certified computation failed its own check,
which indicates a defect and is surfaced loudly).
"""


class BGSplitError(Exception):
    """Base class for all library errors."""


class ParseError(BGSplitError):
    """Malformed input text.  Carries 1-based line and column numbers."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DimensionMismatch(BGSplitError):
    """Matrix or vector shapes do not agree."""


class NotInvertibleOverLaurentRing(BGSplitError):
    """Determinant is not a unit c*x^t of the Laurent polynomial ring."""


class NotInvertible(BGSplitError):
    """Singular matrix over a field (rationals or rational functions)."""


class InvalidBundle(BGSplitError):
    """Transition matrix is not a bundle datum (non-unit determinant)."""


class WorkBudgetExceeded(BGSplitError):
    """Valid input whose computation exceeds a documented work budget."""


class InternalSearchExhausted(BGSplitError):
    """A certified search failed at its configured bound.

    Must not occur for valid input; treated as a defect, not a user error.
    """


class ResonantExponents(BGSplitError):
    """Residue eigenvalues differ by a positive integer within the
    requested truncation order, so the Frobenius recursion is singular."""


class NotFirstKind(BGSplitError):
    """The point is an irregular (second-kind) singularity."""


class NotFuchsian(BGSplitError):
    """The equation has a singularity that is not of the first kind."""
