"""Exception hierarchy shared across the package."""


class SchubertAtlasError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTypeError(SchubertAtlasError):
    """Unknown Cartan family, or rank outside the valid range."""


class InvalidInputError(SchubertAtlasError, ValueError):
    """A number, bound or path given as input is malformed, out of range or
    cannot be used."""


class IndexOutOfRangeError(SchubertAtlasError):
    """A simple-root index lies outside 1..rank."""


class NonReducedWordError(SchubertAtlasError):
    """A word was required to be reduced but is not."""


class NotInSupportError(SchubertAtlasError):
    """The requested simple index does not occur in any reduced word."""


class NotMinimalCosetRepError(SchubertAtlasError):
    """The element is not a minimal-length coset representative.

    ``violating_index`` is a simple index j inside the parabolic with
    w(alpha_j) < 0, when one is known.
    """

    def __init__(self, message: str, violating_index: int | None = None):
        super().__init__(message)
        self.violating_index = violating_index


class NotSimplyLacedError(SchubertAtlasError):
    """The operation is defined for simply-laced root data only."""


class NotSquareError(SchubertAtlasError):
    """A square matrix was required."""


class SingularMatrixError(SchubertAtlasError):
    """The matrix is not invertible."""


class InternalError(SchubertAtlasError):
    """An internal consistency check failed; indicates a bug."""
