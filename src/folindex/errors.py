"""Error taxonomy shared across the package."""


class FolindexError(Exception):
    """Base class for every error the engine raises on purpose."""


class InvalidInput(FolindexError):
    """An argument passed through the Python API is malformed or out of range."""


class ResourceCap(FolindexError):
    """A configured step budget ran out before the computation finished."""


class NotZeroDimensional(FolindexError):
    """An ideal expected to cut out an isolated point has positive dimension."""


class NotMember(FolindexError):
    """A membership certificate was requested for an element outside the ideal."""


class NotInvariant(FolindexError):
    """The vector field is not tangent to the given hypersurface germ."""


class NotLogarithmic(FolindexError):
    """The vector field does not preserve the given coordinate divisor."""


class DegenerateDecomposition(FolindexError):
    """Every decomposition variant vanishes along some branch of the curve."""


class DegenerateMinors(FolindexError):
    """No Jacobian minor has finite vanishing order along the curve."""


class TruncationNotStabilized(FolindexError):
    """A truncation cap was reached without two consecutive agreeing values."""


class RouteConflict(FolindexError):
    """Two independent computation routes disagreed.

    The offending report, when there is one, is attached.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedIdentity(FolindexError):
    """The requested global identity is not one the engine knows."""


class DegreeMismatch(FolindexError):
    """Homogeneous data is inconsistent with the declared degree."""


class IncompleteSingularities(FolindexError):
    """The declared singular points do not account for the global count."""


class SessionError(FolindexError):
    """Base for input-language errors; carries a source position when known."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)
        self.line = line
        self.col = col


class ParseError(SessionError):
    """Malformed session text."""


class UndeclaredName(SessionError):
    """A session statement references a name that was never declared."""


class RingMismatch(SessionError):
    """An object does not live in the session's declared ring."""
