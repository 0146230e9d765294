"""Point-scatterer forward model on the sampled frequency grid.

A scatterer with amplitude a at (x, y) contributes a linear phase ramp
a * exp(-j*2*pi*(kx*x/W + ky*y/H)) to the spectrum; the complex chip is the
windowed inverse FFT of the summed spectrum. For integer positions this makes
the image an exact cyclic shift of the window's point-spread function, which
is what the position fitter exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .decouple import ScatterRegion
from .errors import (DimMismatch, EmptyInput, EmptyRegion, InfeasiblePlacement,
                     OutOfBounds)
from .metrics import OrientedBox
from .raster import ComplexRaster, WindowRaster, _freeze
from .spectral import ifft2d

FIT_DILATE_PX = 2


@dataclass(frozen=True)
class FrequencyGrid:
    """Sample counts of the discrete (kx, ky) grid; one cell per image pixel."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"grid dims must be positive, got {self.height}x{self.width}")


@dataclass(frozen=True)
class Scatterer:
    """Ideal point scatterer: position in pixel units, non-negative gain."""

    x: float
    y: float
    amplitude: float

    def __post_init__(self):
        if not np.isfinite([self.x, self.y, self.amplitude]).all():
            raise ValueError("scatterer fields must be finite")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class SynthChip:
    """A synthesized chip together with its generating ground truth."""

    image: ComplexRaster
    truth: tuple[Scatterer, ...]
    box: OrientedBox
    class_name: str = "scatterer"
    difficulty: int = 0


def forward_field(scatterers: list[Scatterer], grid: FrequencyGrid) -> ComplexRaster:
    """Sum of linear phase ramps over the frequency grid."""
    if not scatterers:
        raise EmptyInput("forward field of zero scatterers")
    h, w = grid.height, grid.width
    ky = np.arange(h).reshape(-1, 1)
    kx = np.arange(w).reshape(1, -1)
    field = np.zeros((h, w), dtype=np.complex128)
    for s in scatterers:
        if not (0 <= s.x < w and 0 <= s.y < h):
            raise OutOfBounds(f"scatterer at ({s.x}, {s.y}) outside {w}x{h} grid")
        row = np.exp(-2j * np.pi * ky * (s.y / h))
        col = np.exp(-2j * np.pi * kx * (s.x / w))
        field += s.amplitude * (row * col)
    return ComplexRaster(field)


def synth_image(scatterers: list[Scatterer], grid: FrequencyGrid,
                window: WindowRaster) -> ComplexRaster:
    """Windowed inverse transform of the forward field."""
    if (window.height, window.width) != (grid.height, grid.width):
        raise DimMismatch(
            f"window {window.height}x{window.width} vs grid {grid.height}x{grid.width}")
    field = forward_field(scatterers, grid)
    return ComplexRaster(ifft2d(window.values * field.samples))


@dataclass(frozen=True)
class SeparablePsf:
    """Amplitude response of a unit scatterer at (0, 0) under a separable window.

    The window is the outer product of two 1-D tapers, so its inverse DFT is
    the outer product of theirs and the PSF image is `outer(row, col)`. For
    the fit, each factor v of length n is flipped circularly and tiled twice,
    `wrap[k] = v[-k % n]`, and `row_windows`/`col_windows` are the (n + 1, n)
    strided views whose row k is `wrap[k:k + n]`, so that row k, entry j
    holds `v[-(k + j) % n]`.
    """

    row: np.ndarray
    col: np.ndarray
    row_windows: np.ndarray = field(init=False, repr=False)
    col_windows: np.ndarray = field(init=False, repr=False)
    norm_sq: float = field(init=False)

    def __post_init__(self):
        row = np.asarray(self.row, dtype=np.float64)
        col = np.asarray(self.col, dtype=np.float64)
        if row.ndim != 1 or col.ndim != 1 or row.size < 1 or col.size < 1:
            raise ValueError("psf factors must be non-empty 1-D arrays")
        object.__setattr__(self, "row", _freeze(row, self.row))
        object.__setattr__(self, "col", _freeze(col, self.col))
        for name, v in (("row_windows", row), ("col_windows", col)):
            n = v.size
            wrap = np.empty(2 * n)
            wrap[0] = v[0]
            wrap[1:n] = v[:0:-1]
            wrap[n:] = wrap[:n]
            step = wrap.strides[0]
            object.__setattr__(self, name, as_strided(wrap, (n + 1, n), (step, step),
                                                      writeable=False))
        object.__setattr__(self, "norm_sq", float(row @ row) * float(col @ col))

    @property
    def shape(self) -> tuple[int, int]:
        return self.row.size, self.col.size

    @property
    def values(self) -> np.ndarray:
        """The 2-D PSF image, built on each access."""
        return np.outer(self.row, self.col)


def base_psf(grid: FrequencyGrid, window: WindowRaster) -> SeparablePsf:
    """|IFFT of the window|: the amplitude response of a unit scatterer at (0, 0)."""
    if (window.height, window.width) != (grid.height, grid.width):
        raise DimMismatch(
            f"window {window.height}x{window.width} vs grid {grid.height}x{grid.width}")
    return SeparablePsf(np.abs(np.fft.ifft(window.row_taper)),
                        np.abs(np.fft.ifft(window.col_taper)))


def reconstruct(scatterer: Scatterer, grid: FrequencyGrid,
                window: WindowRaster) -> ComplexRaster:
    """Single-scatterer chip; identical to synth_image([s], ...)."""
    return synth_image([scatterer], grid, window)


@dataclass(frozen=True)
class FittedScatterer:
    """Integer-lattice fit result with its closed-form gain and residual."""

    x: float
    y: float
    amplitude: float
    residual: float


def _positive_support(region: ScatterRegion | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending flat indices of the region's positive pixels, and their values."""
    if isinstance(region, ScatterRegion):
        idx, vals = region.indices, region.amplitudes
        keep = vals > 0
        return (idx, vals) if keep.all() else (idx[keep], vals[keep])
    flat = region.ravel()
    idx = np.flatnonzero(flat > 0)
    return idx, flat[idx]


def fit_scatterer(region: ScatterRegion | np.ndarray, psf: SeparablePsf,
                  refine: bool = False) -> FittedScatterer:
    """Least-squares fit of one shifted PSF to an extracted amplitude region.

    `region` is a `ScatterRegion` or a full-frame array, zero off the
    region's support, and `psf` is the chip's `base_psf(grid, window)`, of
    the same shape. Only the region's positive pixels are scored. The fit
    minimizes || region - a * psf(x0, y0) ||_2 over integer (x0, y0) in the
    support bounding box dilated by 2 px, with the gain a given in closed
    form; since the psf norm is shift-invariant this is equivalent to
    maximizing the correlation with the shifted psf. Ties resolve to the
    smallest (y0, x0) in row-major order.
    """
    h, w = psf.shape
    if not isinstance(region, ScatterRegion):
        region = np.asarray(region, dtype=np.float64)
    if region.shape != (h, w):
        raise DimMismatch(f"region {region.shape} vs psf {h}x{w}")
    sup_idx, sv = _positive_support(region)
    if sup_idx.size == 0:
        raise EmptyRegion("cannot fit a scatterer to an empty region")

    # the indices ascend, so the first and last give the support's rows
    ry0, ry1 = int(sup_idx[0]) // w, int(sup_idx[-1]) // w
    sy, sx = np.divmod(sup_idx, w)
    rx0, rx1 = int(sx.min()), int(sx.max())
    # candidates: the support bounding box dilated by FIT_DILATE_PX, clamped
    y0, y1 = max(ry0 - FIT_DILATE_PX, 0), min(ry1 + FIT_DILATE_PX, h - 1)
    x0, x1 = max(rx0 - FIT_DILATE_PX, 0), min(rx1 + FIT_DILATE_PX, w - 1)
    ny, nx = y1 - y0 + 1, x1 - x0 + 1

    # support box pixel (r, c) meets the psf shifted to candidate (y0 + j,
    # x0 + i) at row[(ry0 + r - y0 - j) % h] * col[(rx0 + c - x0 - i) % w]
    by, bx = ry1 - ry0 + 1, rx1 - rx0 + 1
    block = np.zeros((by, bx))
    # support pixel y * w + x goes to flat index (y - ry0) * bx + (x - rx0)
    block.ravel()[sup_idx - (w - bx) * sy - (ry0 * bx + rx0)] = sv
    ay = psf.row_windows[h + y0 - ry1:h + y0 - ry0 + 1, :ny][::-1]  # (by, ny)
    ax = psf.col_windows[w + x0 - rx1:w + x0 - rx0 + 1, :nx][::-1]  # (bx, nx)
    crop = ay.T @ (block @ ax)
    dy, dx = divmod(int(crop.argmax()), nx)  # first occurrence = row-major tie-break
    best_y, best_x, best_c = y0 + dy, x0 + dx, float(crop[dy, dx])

    fx, fy = float(best_x), float(best_y)
    if refine:
        def corr_at(cy: int, cx: int) -> float:
            return float(sv @ (psf.row[(sy - cy) % h] * psf.col[(sx - cx) % w]))
        fy = best_y + _parabolic_offset(corr_at(best_y - 1, best_x), best_c,
                                        corr_at(best_y + 1, best_x))
        fx = best_x + _parabolic_offset(corr_at(best_y, best_x - 1), best_c,
                                        corr_at(best_y, best_x + 1))

    psf_sq = psf.norm_sq
    gain = best_c / psf_sq if psf_sq > 0 else 0.0
    resid_sq = float(sv @ sv) - 2 * gain * best_c + gain * gain * psf_sq
    return FittedScatterer(x=fx, y=fy, amplitude=gain,
                           residual=math.sqrt(max(resid_sq, 0.0)))


def _parabolic_offset(lo: float, mid: float, hi: float) -> float:
    """Quadratic peak interpolation through three correlations, clamped to +-0.5 px."""
    denom = lo - 2.0 * mid + hi
    if denom >= 0 or abs(denom) < 1e-300:
        return 0.0
    off = 0.5 * (lo - hi) / denom
    return float(np.clip(off, -0.5, 0.5))


def apply_speckle(image: ComplexRaster, rng: np.random.Generator) -> ComplexRaster:
    """Multiplicative exponential speckle; phase is preserved."""
    gains = rng.exponential(1.0, size=image.samples.shape)
    return ComplexRaster(image.samples * gains)


def _enclosing_box(positions: np.ndarray, theta: float, margin: float) -> OrientedBox:
    center = positions.mean(axis=0)
    u = np.array([np.cos(theta), np.sin(theta)])
    v = np.array([-np.sin(theta), np.cos(theta)])
    rel = positions - center
    hw = float(np.max(np.abs(rel @ u))) + margin
    hh = float(np.max(np.abs(rel @ v))) + margin
    corners = np.array([
        center + u * hw + v * hh,
        center - u * hw + v * hh,
        center - u * hw - v * hh,
        center + u * hw - v * hh,
    ])
    return OrientedBox(corners)


def synth_target(n_scatterers: int, grid: FrequencyGrid, window: WindowRaster,
                 rng: np.random.Generator,
                 amplitude_range: tuple[float, float] = (0.5, 1.5),
                 min_separation: float = 3.0, border_margin: float = 4.0,
                 box_margin: float = 3.0,
                 speckle: bool = False) -> SynthChip:
    """Draw a random scatterer layout and synthesize its chip + annotation.

    Positions are uniform with a border margin and pairwise minimum
    separation (rejection-sampled; raises InfeasiblePlacement after 1000
    failed draws for a point). The annotation is a randomly oriented
    rectangle enclosing all scatterers with a margin, re-drawn axis-aligned
    if the rotated one would leave the image.
    """
    if n_scatterers < 1:
        raise ValueError(f"need at least one scatterer, got {n_scatterers}")
    h, w = grid.height, grid.width
    if w - 2 * border_margin <= 0 or h - 2 * border_margin <= 0:
        raise InfeasiblePlacement(f"{w}x{h} chip too small for {border_margin}px margins")

    placed: list[tuple[float, float]] = []
    for _ in range(n_scatterers):
        for _attempt in range(1000):
            x = float(rng.uniform(border_margin, w - border_margin))
            y = float(rng.uniform(border_margin, h - border_margin))
            if all((x - px) ** 2 + (y - py) ** 2 >= min_separation ** 2
                   for px, py in placed):
                placed.append((x, y))
                break
        else:
            raise InfeasiblePlacement(
                f"could not place scatterer {len(placed) + 1}/{n_scatterers} "
                f"after 1000 draws")

    lo, hi = amplitude_range
    scatterers = tuple(
        Scatterer(x=x, y=y, amplitude=float(rng.uniform(lo, hi))) for x, y in placed)

    positions = np.array(placed)
    box = None
    for _attempt in range(50):
        theta = float(rng.uniform(0.0, np.pi))
        cand = _enclosing_box(positions, theta, box_margin)
        c = cand.corners
        if (c[:, 0] >= 0).all() and (c[:, 0] < w).all() and \
           (c[:, 1] >= 0).all() and (c[:, 1] < h).all():
            box = cand
            break
    if box is None:
        box = _enclosing_box(positions, 0.0, box_margin)

    image = synth_image(list(scatterers), grid, window)
    if speckle:
        image = apply_speckle(image, rng)
    return SynthChip(image=image, truth=scatterers, box=box)
