"""Exception and warning types shared across the package."""


class BlockviError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(BlockviError, ValueError):
    """Operands live in different spaces (block layouts disagree)."""


class WeightSumError(BlockviError, ValueError):
    """Prescription weights do not sum to one within tolerance."""


class InvalidParameter(BlockviError, ValueError):
    """A numeric or structural parameter is outside its admissible range."""


class UnsupportedObjective(BlockviError, TypeError):
    """The least-squares objective is only defined for residual-projector arms."""


class NotInRange(BlockviError, ValueError):
    """The observed value cannot be produced by the source operator."""


class RankDeficient(BlockviError, ValueError):
    """The matrix does not have the rank the operation requires."""


class CoverageError(BlockviError, ValueError):
    """An activation schedule never activates some prescription index."""


class EmptyBlock(BlockviError, ValueError):
    """An activation schedule contains an empty index set."""


class ManifestError(BlockviError, ValueError):
    """An experiment manifest failed to parse or validate."""


class MissingReference(BlockviError, ValueError):
    """A relative-error trace was requested without reference data."""


class FormatError(BlockviError, ValueError):
    """A file does not conform to the expected on-disk format."""
