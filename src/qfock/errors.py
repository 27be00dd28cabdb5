"""Exception hierarchy shared by all qfock modules."""


class QfockError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(QfockError, ZeroDivisionError):
    """Division by the zero element of the coefficient field."""


class NonGenericPoint(QfockError):
    """An evaluation point q0 hits a pole (or a degenerate denominator)."""


class BadPlacement(QfockError):
    """An operator was placed on tensor legs that do not exist."""


class InvalidTable(QfockError):
    """A braiding table failed the structural or property checks on load."""


class MalformedTable(InvalidTable):
    """A braiding table document is unreadable or not of the table format:
    bad input, as opposed to a well-formed table whose braiding fails."""


class InconsistentMu(QfockError):
    """A BMW table declares a cubic eigenvalue not matching its series."""


class NotSkewInvertible(QfockError):
    """The linear system defining the skew inverse is singular."""


class NotStrictlySkewInvertible(QfockError):
    """The skew inverse exists but one of its partial traces is singular."""


class NotInvertible(QfockError):
    """A matrix that must be invertible is singular."""


class UnsupportedBase(QfockError):
    """Baxterization requested for a base braiding of the wrong kind."""


class UnsupportedConstruction(QfockError):
    """The (braiding kind, quotient kind) pair admits no construction."""


class UnsupportedDouble(QfockError):
    """The braiding and flavor admit no Fock double."""


class EmptyComponent(QfockError):
    """A graded component needed for a representation is zero."""


class RhatNotDetermined(QfockError):
    """The braided-Lie R-trace cannot be normalized: B C is not scalar."""


class InvalidArgument(QfockError, ValueError):
    """An argument outside its admissible range, or an option its run does not read."""


class SizeLimitExceeded(QfockError):
    """A computation would exceed its fixed size limit."""


class WindowOverflow(QfockError):
    """A mode computation escaped its window."""
