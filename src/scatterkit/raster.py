"""Raster value types and amplitude/dB conversions.

All rasters wrap a 2-D row-major numpy array and are immutable after
construction (the backing array is marked read-only), so they are safe to
share between threads without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroRaster

# Slack on the "peak-referenced dB <= 0" invariant. The +eps inside the log
# pushes the peak slightly above 0 dB (10*log10(1 + eps/peak), ~4.3e-6 dB for
# eps=1e-6 at unit peak), so the bound cannot be exactly zero.
DB_PEAK_TOL = 1e-4

DEFAULT_DB_EPS = 1e-6


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
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
        object.__setattr__(self, "samples", _freeze(arr))

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
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DbRaster:
    """Log-amplitude raster referenced to its own peak (values ~<= 0 dB)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dB raster contains NaN/Inf values")
        if float(arr.max()) > DB_PEAK_TOL:
            raise ValueError(
                f"dB raster max {arr.max():g} exceeds peak-reference tolerance"
            )
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowRaster:
    """Separable 2-D spectral taper: outer product of two 1-D windows.

    Built via spectral.taylor_window_2d; values lie in (0, 1] with the peak
    normalized to exactly 1, and must equal outer(row_taper, col_taper)
    exactly, since the PSF and the fit are built from the two tapers alone.
    """

    values: np.ndarray
    row_taper: np.ndarray = field(repr=False)
    col_taper: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("window raster must be 2-D")
        if np.any(arr <= 0) or np.any(arr > 1):
            raise ValueError("window values must lie in (0, 1]")
        if not np.isclose(arr.max(), 1.0, rtol=0, atol=1e-12):
            raise ValueError("window peak must be normalized to 1")
        row = np.asarray(self.row_taper, dtype=np.float64)
        col = np.asarray(self.col_taper, dtype=np.float64)
        if row.ndim != 1 or col.ndim != 1:
            raise ValueError("window tapers must be 1-D")
        if (row.size, col.size) != arr.shape:
            raise ValueError(
                f"tapers {row.size}x{col.size} do not match window {arr.shape}")
        if not np.array_equal(arr, np.outer(row, col)):
            raise ValueError("window values must equal outer(row_taper, col_taper)")
        object.__setattr__(self, "values", _freeze(arr))
        object.__setattr__(self, "row_taper", _freeze(row))
        object.__setattr__(self, "col_taper", _freeze(col))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def amplitude(img: ComplexRaster) -> AmplitudeRaster:
    """Per-pixel complex modulus of a chip."""
    return AmplitudeRaster(np.abs(img.samples))


def peak_db(values: np.ndarray, peak: float, eps: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """10*log10((values + eps) / peak), elementwise: the package's one dB formula.

    `to_db` and the region grower both use it. With `out` given, the result
    is written there and nothing is allocated.
    """
    out = np.add(values, eps, out=out)
    np.divide(out, peak, out=out)
    np.log10(out, out=out)
    return np.multiply(out, 10.0, out=out)


def to_db(r: AmplitudeRaster, eps: float = DEFAULT_DB_EPS) -> DbRaster:
    """Peak-referenced log amplitude: 10*log10((R + eps) / max(R)).

    Raises AllZeroRaster when the raster has no positive value (the peak
    reference would be zero).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    peak = float(r.values.max())
    if peak == 0.0:
        raise AllZeroRaster("cannot form peak-referenced dB of an all-zero raster")
    return DbRaster(peak_db(r.values, peak, eps))
