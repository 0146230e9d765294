"""2-D spectral transforms and the Taylor taper.

Normalization convention: the forward transform is unnormalized and the
inverse carries the full 1/(H*W) factor, so a unit constant spectrum inverts
to a unit impulse at (0, 0). The contract is the plain DFT, so any raster
size is supported, not just powers of two.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidWindowParams
from .raster import WindowRaster

DEFAULT_NBAR = 4
DEFAULT_SIDELOBE_DB = -35.0


def fft2d(samples: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT."""
    return np.fft.fft2(samples)


def ifft2d(spectrum: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT with 1/(H*W) normalization (fft2d's exact inverse)."""
    return np.fft.ifft2(spectrum)


def _check_window_params(nbar: int, sidelobe_db: float) -> None:
    """Raise InvalidWindowParams unless nbar >= 1 and sidelobe_db is finite and < 0."""
    if nbar <= 0:
        raise InvalidWindowParams(f"nbar must be >= 1, got {nbar}")
    if not math.isfinite(sidelobe_db) or sidelobe_db >= 0:
        raise InvalidWindowParams(
            f"sidelobe level must be finite and < 0 dB, got {sidelobe_db}")


def _taylor_coefficients(nbar: int, sidelobe_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Taylor's indices m = 1..nbar-1 and coefficients Fm, which no length changes."""
    _check_window_params(nbar, sidelobe_db)
    a = np.arccosh(10 ** (-sidelobe_db / 20)) / np.pi
    s2 = nbar ** 2 / (a ** 2 + (nbar - 0.5) ** 2)
    ma = np.arange(1, nbar, dtype=np.float64)
    m2 = ma * ma
    fm = np.empty(nbar - 1)
    for mi in range(nbar - 1):
        numer = (-1) ** mi * np.prod(1 - m2[mi] / s2 / (a ** 2 + (ma - 0.5) ** 2))
        denom = 2 * np.prod(1 - m2[mi] / m2[:mi]) * np.prod(1 - m2[mi] / m2[mi + 1:])
        fm[mi] = numer / denom
    return ma, fm


def _taylor_taper(length: int, ma: np.ndarray, fm: np.ndarray) -> np.ndarray:
    if length < 1:
        raise InvalidWindowParams(f"length must be >= 1, got {length}")
    if length == 1:
        return np.ones(1)
    n = np.arange(length, dtype=np.float64)
    w = 1 + 2 * (fm @ np.cos(2 * np.pi * ma[:, np.newaxis] * (n - length / 2 + 0.5) / length))
    return w / w.max()


def taylor_window(length: int, nbar: int = DEFAULT_NBAR,
                  sidelobe_db: float = DEFAULT_SIDELOBE_DB) -> np.ndarray:
    """Symmetric 1-D Taylor taper, max-normalized to 1.

    sidelobe_db is the design sidelobe level and must be negative
    (e.g. -35 for 35 dB of suppression). The taper is Taylor's n-bar
    distribution (T. T. Taylor, IRE Trans. Antennas Propag. 3(1), 1955),
    evaluated in the same order of operations as
    `scipy.signal.windows.taylor(length, nbar, -sidelobe_db, norm=False)`,
    so the two agree bit for bit.
    """
    return _taylor_taper(length, *_taylor_coefficients(nbar, sidelobe_db))


def taylor_window_2d(height: int, width: int, nbar: int = DEFAULT_NBAR,
                     sidelobe_db: float = DEFAULT_SIDELOBE_DB) -> WindowRaster:
    """Separable 2-D Taylor taper: per-axis 1-D tapers, no 2-D array built."""
    return _taylor_window_2d(height, width, _taylor_coefficients(nbar, sidelobe_db))


def _taylor_window_2d(height: int, width: int,
                      coeffs: tuple[np.ndarray, np.ndarray]) -> WindowRaster:
    """`taylor_window_2d` from `_taylor_coefficients` computed once by the caller."""
    return WindowRaster(_taylor_taper(height, *coeffs), _taylor_taper(width, *coeffs))


def rectangular_window_2d(height: int, width: int) -> WindowRaster:
    """All-ones window (no taper); inverting it alone gives a unit impulse."""
    return WindowRaster(np.ones(height), np.ones(width))
