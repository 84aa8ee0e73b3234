"""Exception types shared across the gaitlock pipeline."""


class GaitlockError(Exception):
    """Base class for every error this package raises deliberately."""


class EmptyDirectory(GaitlockError):
    """No frame files found where a sequence was expected."""


class DimensionMismatch(GaitlockError):
    """Images or vectors that must share a shape do not."""


class DecodeError(GaitlockError):
    """An image file could not be parsed."""


class TooFewFrames(GaitlockError):
    """An operation needs more frames than the sequence provides."""


class NoPeriodicity(GaitlockError):
    """No qualifying peak in the width-signal autocorrelation."""


class SequenceTooShort(GaitlockError):
    """Signal shorter than the analysis requires."""


class InsufficientCycles(GaitlockError):
    """Fewer complete gait cycles than the feature window needs."""


class EmptyWindow(GaitlockError):
    """Feature window contains no usable silhouettes."""


class BadDimensions(GaitlockError):
    """Wavelet input is not a square power-of-two grid."""


class BadComponentLength(GaitlockError):
    """Feature component has the wrong dimension for fusion."""


class SingleClass(GaitlockError):
    """Binary training data carries only one label."""


class NonFinite(GaitlockError):
    """Training or probe data, or a kernel value or score computed from it, is not finite."""


class TooFewClasses(GaitlockError):
    """Multi-class training needs at least two classes."""


class FormatError(GaitlockError):
    """A model file or features CSV is truncated or malformed."""


class VersionMismatch(GaitlockError):
    """Model file written by an incompatible format version."""


class LengthMismatch(GaitlockError):
    """Truth and prediction label lists differ in length."""


class EmptyInput(GaitlockError):
    """An evaluation was attempted on zero samples."""


class TooFewSequences(GaitlockError):
    """A subject has too few sequences for a train/test split."""


class SpecOutOfBounds(GaitlockError):
    """Walker geometry does not fit inside the frame."""


class BadName(GaitlockError):
    """A subject or sequence name cannot be written unquoted to the
    features CSV and the model file."""


class StageError(GaitlockError):
    """A pipeline stage failed; carries the stage name, the
    ``subject/sequence`` it failed on (None outside one sequence) and the
    cause."""

    def __init__(self, stage: str, cause: Exception, location: str | None = None):
        where = f" {location}:" if location else ""
        super().__init__(f"[{stage}]{where} {cause}")
        self.stage = stage
        self.location = location
        self.cause = cause
