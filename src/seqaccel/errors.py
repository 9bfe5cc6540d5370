"""Exception types shared across the package."""


class SequenceTransformError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(SequenceTransformError):
    """An operation received an empty sequence."""


class ConsistencyError(SequenceTransformError):
    """Stored series terms and partial sums disagree."""


class InvalidParameterError(SequenceTransformError, ValueError):
    """A parameter lies outside its validity domain."""


class PathRangeError(SequenceTransformError):
    """A path specification points outside the transform table."""


class InsufficientDataError(SequenceTransformError):
    """Too few sequence elements for the requested operation."""


class ZeroRemainderError(SequenceTransformError):
    """A remainder estimate vanished, leaving the transform undefined."""

    def __init__(self, index, message=None):
        super().__init__(message or f"remainder estimate is zero at n={index}")
        self.index = index


class DegeneratePadeError(SequenceTransformError):
    """The Pade linear system is singular (a block in the Pade table)."""


class DomainError(SequenceTransformError):
    """Argument outside the mathematical domain of the function."""


class SingularMatrixError(SequenceTransformError):
    """Gaussian elimination met a pivot below threshold."""


class IngestError(SequenceTransformError):
    """An input file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CompareError(SequenceTransformError):
    """A comparison lists the same transform twice."""


class ConfigError(SequenceTransformError):
    """Invalid command-line argument or config-file setting."""
