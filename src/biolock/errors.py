"""Exception types raised by the biolock pipelines.

Every named failure mode of the library lives here so callers can catch one
base class (BiolockError) or the specific condition they care about.
"""


class BiolockError(Exception):
    """Base class for all biolock errors."""


# --- imaging ---------------------------------------------------------------

class MalformedHeader(BiolockError):
    """Input bytes are not a binary PGM (P5) image."""


class UnsupportedMaxval(BiolockError):
    """PGM maxval is not 255."""


class TruncatedData(BiolockError):
    """PGM, template (FPT1) or iris code (IRC1) bytes are short or corrupt."""


class EvenWindow(BiolockError):
    """Adaptive threshold window must be odd and >= 3."""


# --- fingerprint -----------------------------------------------------------

class ImageTooSmall(BiolockError):
    """Image is smaller than the analysis window requires."""


class BlockTooSmall(BiolockError):
    """Image is smaller than one orientation/frequency block."""


class EmptyTemplate(BiolockError):
    """Registration needs at least one minutia on each side."""


# --- iris ------------------------------------------------------------------

class NoPupilFound(BiolockError):
    """No dark component large enough to be a pupil."""


class BoundaryNotFound(BiolockError):
    """Iris boundary search range was empty."""


class BadDimensions(BiolockError):
    """Normalized strip dimensions do not support the requested transform."""


class SchemeMismatch(BiolockError):
    """Iris codes of different schemes were compared; a scheme fixes the length."""


class IncomparableCodes(BiolockError):
    """No shift leaves enough jointly valid bits to compare."""


# --- fusion ----------------------------------------------------------------

class ZeroWeights(BiolockError):
    """Fusion weights sum to zero."""


class NoScores(BiolockError):
    """Fusion pipeline called with no classifier scores."""


# --- registry --------------------------------------------------------------

class DuplicateSubject(BiolockError):
    """Subject id already enrolled."""


class EmptyEnrollment(BiolockError):
    """Enrollment needs at least one image."""


class UnknownSubject(BiolockError):
    """Claimed subject id is not in the database."""


class NoProbe(BiolockError):
    """Verification/identification needs at least one probe image."""


class EmptyDatabase(BiolockError):
    """Identification against an empty database."""


class PipelineFailure(BiolockError):
    """A feature-extraction pipeline failed for one input image.

    Carries which modality/image index and stage failed so enrollment can
    report it and stay all-or-nothing.
    """

    def __init__(self, modality, index, stage, cause):
        self.modality = modality
        self.index = index
        self.stage = stage
        self.cause = cause
        super().__init__(f"{modality} image {index}: stage '{stage}' failed: {cause}")


class CorruptManifest(BiolockError):
    """Database manifest does not parse or has the wrong shape."""


class MissingTemplateFile(BiolockError):
    """Manifest references a template file that does not exist."""


class BadMagic(BiolockError):
    """Template/code file does not start with the expected magic."""


def failed_stage(exc: BaseException) -> str:
    """The extraction stage an error names; a subclass names its base's."""
    if isinstance(exc, NoPupilFound):
        return "pupil-localization"
    if isinstance(exc, BoundaryNotFound):
        return "iris-boundary"
    return "feature-extraction"
