"""The Taylor taper and the 2-D windows built from it.

Windows weight a spectrum before numpy's inverse DFT (`np.fft.ifft2`),
which carries the full 1/(H*W) factor, so the all-ones window inverts a
unit constant spectrum to a unit impulse at (0, 0).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import InvalidWindowParams
from .raster import WindowRaster, _taper_fault

DEFAULT_NBAR = 4
DEFAULT_SIDELOBE_DB = -35.0
# measured: Taylor's coefficients overflow float64 from nbar 405 on at every
# level in [-6165, -1e-12] dB, and 10^(-sidelobe_db/20) below -6165 dB
MAX_NBAR = 400
MIN_SIDELOBE_DB = -6000.0
# distinct axis lengths whose Taylor tapers stay built
TAPER_MEMO_SIZE = 256


def _check_window_params(nbar: int, sidelobe_db: float) -> None:
    """Raise InvalidWindowParams unless nbar is an integer in [1, MAX_NBAR]
    and sidelobe_db is finite and in [MIN_SIDELOBE_DB, 0): the parameters
    whose Taylor coefficients are finite, whatever the taper's length."""
    if not isinstance(nbar, numbers.Integral):
        raise InvalidWindowParams(f"nbar must be an integer, got {nbar!r}")
    if not 1 <= nbar <= MAX_NBAR:
        raise InvalidWindowParams(f"nbar must lie in [1, {MAX_NBAR}], got {nbar}")
    if not (math.isfinite(sidelobe_db) and MIN_SIDELOBE_DB <= sidelobe_db < 0):
        raise InvalidWindowParams(
            f"sidelobe level must be finite and in [{MIN_SIDELOBE_DB:g}, 0) dB, "
            f"got {sidelobe_db}")


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

    sidelobe_db is the design sidelobe level, in [MIN_SIDELOBE_DB, 0) (e.g.
    -35 for 35 dB of suppression), and nbar lies in [1, MAX_NBAR]. The taper
    is Taylor's n-bar distribution (T. T. Taylor, IRE Trans. Antennas
    Propag. 3(1), 1955), evaluated in the same order of operations as
    `scipy.signal.windows.taylor(length, nbar, -sidelobe_db, norm=False)`,
    so the two agree bit for bit.
    """
    return _taylor_taper(length, *_taylor_coefficients(nbar, sidelobe_db))


def taylor_window_2d(height: int, width: int, nbar: int = DEFAULT_NBAR,
                     sidelobe_db: float = DEFAULT_SIDELOBE_DB) -> WindowRaster:
    """Separable 2-D Taylor taper: per-axis 1-D tapers, no 2-D array built.
    Each taper is built and validated once per (length, nbar, sidelobe_db)
    (`_memo_taper`) and then shared read-only, so it is not checked again."""
    _check_window_params(nbar, sidelobe_db)  # before the memo: 4.0 must not hit 4's entry
    return WindowRaster._trusted(_memo_taper(height, nbar, sidelobe_db),
                                 _memo_taper(width, nbar, sidelobe_db))


@functools.lru_cache(maxsize=TAPER_MEMO_SIZE)
def _memo_taper(length: int, nbar: int, sidelobe_db: float) -> np.ndarray:
    """The read-only taper `taylor_window(length, nbar, sidelobe_db)`, or
    InvalidWindowParams naming the length if `_taper_fault` rejects it;
    Taylor's coefficients are computed only on a miss.

    The memo holds at most TAPER_MEMO_SIZE tapers, least recently used out
    first, so it never holds more than TAPER_MEMO_SIZE * 8 * n bytes of
    tapers for crops whose sides are at most n (2 MiB for n = 1024).
    """
    taper = _taylor_taper(length, *_taylor_coefficients(nbar, sidelobe_db))
    fault = _taper_fault(taper)
    if fault is not None:
        raise InvalidWindowParams(f"Taylor taper of length {length} (nbar {nbar}, "
                                  f"{sidelobe_db} dB): {fault}")
    taper.setflags(write=False)
    return taper


def rectangular_window_2d(height: int, width: int) -> WindowRaster:
    """All-ones window (no taper); inverting it alone gives a unit impulse."""
    return WindowRaster(np.ones(height), np.ones(width))
