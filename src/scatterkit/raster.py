"""Raster value types and amplitude/dB conversions.

All rasters wrap a 2-D row-major numpy array and are immutable after
construction (the backing array is marked read-only), so they are safe to
share between threads without copying. A constructor keeps its own copy of
a writable array it is given, so the caller's array stays writable and later
writes to it do not reach the raster; a read-only array is kept as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _freeze(arr: np.ndarray, source: object) -> np.ndarray:
    """`arr`, a constructor's conversion of its argument `source`, as a
    read-only C-contiguous array: copied while it shares memory with a
    writable `source` array, frozen in place otherwise."""
    out = np.ascontiguousarray(arr)
    if out.flags.writeable and isinstance(source, np.ndarray) and \
            np.may_share_memory(out, source):
        out = out.copy()
    out.setflags(write=False)
    return out


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first of `values` that is NaN or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class ComplexRaster:
    """2-D grid of complex field samples (an SLC chip or a spectrum)."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("complex raster contains NaN/Inf samples")
        object.__setattr__(self, "samples", _freeze(arr, self.samples))

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class AmplitudeRaster:
    """2-D grid of non-negative amplitude values."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitude raster contains NaN/Inf values")
        if np.any(arr < 0):
            raise ValueError("amplitude raster contains negative values")
        object.__setattr__(self, "values", _freeze(arr, self.values))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowRaster:
    """Separable 2-D spectral taper, held as its two 1-D windows.

    Built via spectral.taylor_window_2d. Each taper lies in (0, 1] with its
    peak at exactly 1, so the window `outer(row_taper, col_taper)` does too.
    The PSF and the fit read the two tapers alone; `values` builds the 2-D
    window on access, for image synthesis.
    """

    row_taper: np.ndarray
    col_taper: np.ndarray

    def __post_init__(self):
        for name in ("row_taper", "col_taper"):
            taper = np.asarray(getattr(self, name), dtype=np.float64)
            if taper.ndim != 1 or taper.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if np.any(taper <= 0) or np.any(taper > 1):
                raise ValueError(f"{name} values must lie in (0, 1]")
            # np.isclose(peak, 1, rtol=0, atol=1e-12), without its overhead
            if not abs(float(taper.max()) - 1.0) <= 1e-12:
                raise ValueError(f"{name} peak must be normalized to 1")
            object.__setattr__(self, name, _freeze(taper, getattr(self, name)))

    @property
    def height(self) -> int:
        return self.row_taper.size

    @property
    def width(self) -> int:
        return self.col_taper.size

    @property
    def values(self) -> np.ndarray:
        """The 2-D window outer(row_taper, col_taper), built on each access."""
        return np.outer(self.row_taper, self.col_taper)


def amplitude(img: ComplexRaster) -> AmplitudeRaster:
    """Per-pixel complex modulus of a chip."""
    vals = np.abs(img.samples)
    vals.setflags(write=False)  # fresh, so the raster keeps it without a copy
    return AmplitudeRaster(vals)


def peak_db(values: np.ndarray, peak: float, eps: float) -> np.ndarray:
    """10*log10((values + eps) / peak), elementwise: the package's one dB formula.

    The region grower calls it on one or two amplitudes to settle a near-tie
    exactly as a dB pass over the frame would.
    """
    return 10.0 * np.log10((values + eps) / peak)
