"""Exception types shared across the package.

Every data-dependent failure derives from :class:`DataError` so callers
(notably the CLI) can distinguish bad inputs from bugs.
"""


class DataError(Exception):
    """Base class for all input/data errors raised by evhash."""


# -- binary file formats ------------------------------------------------

class BadMagic(DataError):
    pass


class TruncatedFile(DataError):
    pass


class UnsupportedVersion(DataError):
    pass


class MalformedFile(DataError):
    """Content that does not parse: bad text, fields or trailing bytes."""


# -- sequences and frames -----------------------------------------------

class EmptySequence(DataError):
    pass


class EmptyFrame(DataError):
    pass


class WrongDimensions(DataError):
    pass


class EmptyTrainSet(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class DoubleNormalize(DataError):
    pass


# -- numerics / training ------------------------------------------------

class ShapeMismatch(DataError):
    pass


class NonFiniteGradient(DataError):
    pass


class NonDeterministicLoss(DataError):
    pass


class NonFiniteLoss(DataError):
    pass


class LengthMismatch(DataError):
    pass


class BatchTooSmall(DataError):
    pass


# -- hashing and retrieval ----------------------------------------------

class BadRange(DataError):
    pass


class EmptyCodes(DataError):
    pass


class EmptyEntry(DataError):
    pass


class EmptyQuery(DataError):
    pass


class EmptyDatabase(DataError):
    pass


class DuplicateId(DataError):
    pass


class ModeMismatch(DataError):
    pass


# -- benchmark ----------------------------------------------------------

class OutOfRange(DataError):
    pass


class TooShort(DataError):
    pass


class ZeroDuration(DataError):
    pass
