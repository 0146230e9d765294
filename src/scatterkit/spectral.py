"""2-D spectral transforms and the Taylor taper.

Normalization convention: the forward transform is unnormalized and the
inverse carries the full 1/(H*W) factor, so a unit constant spectrum inverts
to a unit impulse at (0, 0). The contract is the plain DFT, so any raster
size is supported, not just powers of two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal.windows import taylor as _scipy_taylor

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


def taylor_window(length: int, nbar: int = DEFAULT_NBAR,
                  sidelobe_db: float = DEFAULT_SIDELOBE_DB) -> np.ndarray:
    """Symmetric 1-D Taylor taper, max-normalized to 1.

    sidelobe_db is the design sidelobe level and must be negative
    (e.g. -35 for 35 dB of suppression).
    """
    _check_window_params(nbar, sidelobe_db)
    if length < 1:
        raise InvalidWindowParams(f"length must be >= 1, got {length}")
    if length == 1:
        return np.ones(1)
    w = _scipy_taylor(length, nbar=nbar, sll=-sidelobe_db, norm=False, sym=True)
    return w / w.max()


def taylor_window_2d(height: int, width: int, nbar: int = DEFAULT_NBAR,
                     sidelobe_db: float = DEFAULT_SIDELOBE_DB) -> WindowRaster:
    """Separable 2-D Taylor taper: outer product of per-axis 1-D tapers."""
    wy = taylor_window(height, nbar, sidelobe_db)
    wx = taylor_window(width, nbar, sidelobe_db)
    return WindowRaster(np.outer(wy, wx), row_taper=wy, col_taper=wx)


def rectangular_window_2d(height: int, width: int) -> WindowRaster:
    """All-ones window (no taper); inverting it alone gives a unit impulse."""
    return WindowRaster(np.ones((height, width)),
                        row_taper=np.ones(height), col_taper=np.ones(width))
