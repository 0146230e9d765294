"""Exception types raised across the toolkit.

Every error condition named by an operation contract gets its own class so
callers can catch precisely. All inherit from ScatterKitError.
"""


class ScatterKitError(Exception):
    """Base class for all scatterkit errors."""


# --- raster / spectral ------------------------------------------------------

class AllZeroRaster(ScatterKitError):
    """Amplitude raster has no strictly positive value."""


class InvalidWindowParams(ScatterKitError):
    """Taylor window parameters out of range (nbar <= 0 or sidelobe >= 0 dB)."""


# --- chip container ---------------------------------------------------------

class ChipFormatError(ScatterKitError):
    """Base for malformed chip container files."""


class BadMagic(ChipFormatError):
    """File does not start with a recognized magic signature."""


class BadDims(ChipFormatError):
    """Header dimensions are zero, negative, or inconsistent."""


class TruncatedPayload(ChipFormatError):
    """Payload shorter than the header-declared sample count."""


class BadSamples(ChipFormatError):
    """Payload holds NaN/Inf samples, or negative values in an amplitude chip."""


# --- ASC model --------------------------------------------------------------

class OutOfBounds(ScatterKitError):
    """A scatterer position lies outside its grid."""


class DimMismatch(ScatterKitError):
    """Two rasters/grids that must share dimensions do not."""


class EmptyRegion(ScatterKitError):
    """Scatter region has no nonzero pixel to fit against."""


class InfeasiblePlacement(ScatterKitError):
    """Random placement could not satisfy separation constraints."""


# --- keypoints --------------------------------------------------------------

class EmptyInput(ScatterKitError):
    """Clustering called with no positions."""


class NoCandidates(ScatterKitError):
    """DoG detector found no pixel above threshold."""


# --- metrics ----------------------------------------------------------------

class DegenerateBox(ScatterKitError):
    """Oriented box is non-convex, self-intersecting, or has zero area."""


class EmptyClasses(ScatterKitError):
    """mAP requested over an empty class->AP map."""


class EmptyProposals(ScatterKitError):
    """PHR/precision requested for an empty proposal list."""


# --- annotation I/O ---------------------------------------------------------

class MalformedLine(ScatterKitError):
    """Annotation line does not match the expected token layout."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BadKeypointCount(ScatterKitError):
    """Keypoint extension does not carry exactly 2k numbers."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BoxOutsideImage(ScatterKitError):
    """Crop box does not intersect the image bounds."""


# --- configuration ----------------------------------------------------------

class BadConfigField(ScatterKitError):
    """Unknown or ill-typed configuration field; `path` names the file it came from."""

    def __init__(self, field_path: str, message: str = "", path: str | None = None):
        detail = f": {message}" if message else ""
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}bad config field '{field_path}'{detail}")
        self.field_path = field_path
        self.message = message
