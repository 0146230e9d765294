"""Point-scatterer forward model on the sampled frequency grid.

A scatterer with amplitude a at (x, y) contributes a linear phase ramp
a * exp(-j*2*pi*(kx*x/W + ky*y/H)) to the spectrum; the complex chip is the
windowed inverse FFT of the summed spectrum. For integer positions this makes
the image an exact cyclic shift of the window's point-spread function, which
is what the position fitter exploits.

The fit has one kernel, `_fit_positions`, which takes an instance's regions
as one flat layout (their frame, their concatenated support indices and
amplitudes, and each region's size, as `decouple._extract` hands them on)
and gives each region's best lattice position and correlation. `annotate`
reads the positions alone; `_fitted` adds each region's gain and residual
in closed form, for `annotio.fit_regions` and for `fit_scatterer`, its
one-region case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decouple import ScatterRegion
from .errors import (DimMismatch, EmptyInput, EmptyRegion, InfeasiblePlacement,
                     OutOfBounds)
from .metrics import OrientedBox
from .raster import ComplexRaster, WindowRaster, _freeze, _require_index, _unchecked

FIT_DILATE_PX = 2
SYNTH_BORDER_PX = 4.0
SYNTH_BOX_MARGIN_PX = 3.0


@dataclass(frozen=True)
class FrequencyGrid:
    """Sample counts of the discrete (kx, ky) grid; one cell per image pixel."""

    height: int
    width: int

    def __post_init__(self):
        _require_index(height=self.height, width=self.width)
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
    return ComplexRaster(np.fft.ifft2(window.values * field.samples))


def _psf_axis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One factor of a `SeparablePsf`: the read-only float64 factor `v`, its
    (n, n) circulant windows, entry (a, b) = `v[(b - a) % n]`, a read-only
    view of `v` tiled twice (row a starts at n - a), and its squared norm."""
    return v, sliding_window_view(np.concatenate((v, v))[1:], v.size)[::-1], float(v @ v)


def _psf_fields(row_axis: tuple[np.ndarray, np.ndarray, float],
                col_axis: tuple[np.ndarray, np.ndarray, float]) -> dict[str, object]:
    """The fields of the `SeparablePsf` of two `_psf_axis` results."""
    (row, row_windows, row_sq), (col, col_windows, col_sq) = row_axis, col_axis
    return dict(row=row, col=col, row_windows=row_windows, col_windows=col_windows,
                norm_sq=row_sq * col_sq)


# distinct window tapers whose PSF factors stay built
PSF_MEMO_SIZE = 256


@functools.lru_cache(maxsize=PSF_MEMO_SIZE)
def _memo_psf_axis(taper: bytes) -> tuple[np.ndarray, np.ndarray, float]:
    """`_psf_axis` of |IFFT| of a taper, given as the bytes of its float64
    array: the factor a window's axis contributes to its `base_psf`.

    The memo holds at most PSF_MEMO_SIZE axes, least recently used out
    first. An axis of n samples holds 32 * n bytes (its key, its factor
    and the factor tiled twice, of which the windows are a view), so the
    memo never holds more than PSF_MEMO_SIZE * 32 * n bytes for tapers of
    at most n samples (8 MiB for n = 1024).
    """
    v = np.abs(np.fft.ifft(np.frombuffer(taper)))
    v.setflags(write=False)
    return _psf_axis(v)


@dataclass(frozen=True, eq=False)
class SeparablePsf:
    """Amplitude response of a unit scatterer at (0, 0) under a separable window.

    The window is the outer product of two 1-D tapers, so its inverse DFT is
    the outer product of theirs and the PSF image is `outer(row, col)`. For
    the fit, `row_windows`/`col_windows` are each factor v's (n, n) circulant
    view, entry (a, b) = `v[(b - a) % n]`: the factor's response at b to a
    unit scatterer at a. The constructor validates its factors and builds
    each axis with `_psf_axis`; `base_psf` builds its PSFs from cached axes
    through `raster._unchecked`.
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
        self.__dict__.update(_psf_fields(_psf_axis(_freeze(row, self.row)),
                                         _psf_axis(_freeze(col, self.col))))

    @property
    def shape(self) -> tuple[int, int]:
        return self.row.size, self.col.size

    @property
    def values(self) -> np.ndarray:
        """The 2-D PSF image, built on each access."""
        return np.outer(self.row, self.col)


def base_psf(window: WindowRaster) -> SeparablePsf:
    """|IFFT of the window|: the amplitude response of a unit scatterer at (0, 0).

    The PSF is the outer product of |IFFT| of the two tapers, so its shape
    is the window's. Each factor, with its fit windows and squared norm, is
    computed once per taper and shared read-only by every PSF built on that
    taper after that.
    """
    fields = _psf_fields(_memo_psf_axis(window.row_taper.tobytes()),
                         _memo_psf_axis(window.col_taper.tobytes()))
    return _unchecked(SeparablePsf, **fields)


@dataclass(frozen=True)
class FittedScatterer:
    """Integer-lattice fit result with its closed-form gain and residual."""

    x: float
    y: float
    amplitude: float
    residual: float


def _fit_positions(shape: tuple[int, int], indices: np.ndarray, amplitudes: np.ndarray,
                   sizes: list[int], psf: SeparablePsf
                   ) -> tuple[tuple[list[int], list[int], list[float]],
                              tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The fit kernel: the best integer position of each region of a flat
    layout, as `fit_scatterer` defines it.

    The layout is the regions' (h, w) frame, their ascending flat row-major
    indices concatenated, the values there and each region's size; it holds
    at least one region, as every extraction does. Only the positive pixels
    are scored: a region without one raises EmptyRegion, and a frame other
    than the PSF's raises DimMismatch. One pass over all the
    pixels gives every region's rows, columns, bounds and candidate box: the
    indices ascend, so a region's first and last pixels give its rows, and
    `reduceat` gives its columns. One scatter fills every bounding block,
    zero off the pixels, into one zeroed buffer. Then each region correlates
    its block with the shifted PSFs in two products, of window rows sliced by
    its candidate range and columns by its support range. Returns each
    region's best y, x and correlation, and the positive pixels' indices and
    values with the end of each region in them.
    """
    h, w = psf.shape
    sizes = np.asarray(sizes, dtype=np.intp)
    keep = amplitudes > 0
    if not keep.all():  # a region may hold values <= 0
        sizes = np.add.reduceat(keep, np.cumsum(sizes) - sizes, dtype=np.intp)
        if not sizes.all():
            raise EmptyRegion("cannot fit a scatterer to an empty region")
        indices, amplitudes = indices[keep], amplitudes[keep]
    if shape != (h, w):
        raise DimMismatch(f"region {shape} vs psf {h}x{w}")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sy, sx = np.divmod(indices, w)
    ry0, ry1 = sy[starts], sy[ends - 1]
    rx0, rx1 = np.minimum.reduceat(sx, starts), np.maximum.reduceat(sx, starts)
    heights, widths = ry1 - ry0 + 1, rx1 - rx0 + 1
    areas = heights * widths
    offsets = np.cumsum(areas) - areas
    buf = np.zeros(int(offsets[-1] + areas[-1]))
    # pixel y * w + x of region r goes to offsets[r] + (y - ry0[r]) * widths[r] + x - rx0[r]
    dest = np.repeat(offsets - ry0 * widths - rx0, sizes) + np.repeat(widths, sizes) * sy + sx
    buf[dest] = amplitudes
    # candidates: the support bounding box dilated by FIT_DILATE_PX, clamped
    y0, x0 = np.maximum(ry0 - FIT_DILATE_PX, 0), np.maximum(rx0 - FIT_DILATE_PX, 0)
    ny = np.minimum(ry1 + FIT_DILATE_PX, h - 1) - y0 + 1
    nx = np.minimum(rx1 + FIT_DILATE_PX, w - 1) - x0 + 1

    # candidate (cy, cx) meets support pixel (y, x) at row[(y - cy) % h] *
    # col[(x - cx) % w], entry (cy, y) of row_windows and (cx, x) of col_windows
    rows, cols = psf.row_windows, psf.col_windows
    ys, xs, best = [], [], []
    for o, by, bx, sy0, sx0, cy, cx, my, mx in zip(
            offsets.tolist(), heights.tolist(), widths.tolist(), ry0.tolist(),
            rx0.tolist(), y0.tolist(), x0.tolist(), ny.tolist(), nx.tolist()):
        crop = rows[cy:cy + my, sy0:sy0 + by] @ (buf[o:o + by * bx].reshape(by, bx)
                                                 @ cols[cx:cx + mx, sx0:sx0 + bx].T)
        k = int(crop.argmax())  # first occurrence = row-major tie-break
        dy, dx = divmod(k, mx)
        ys.append(cy + dy)
        xs.append(cx + dx)
        best.append(crop.item(k))
    return (ys, xs, best), (indices, amplitudes, ends)


def _fitted(shape: tuple[int, int], indices: np.ndarray, amplitudes: np.ndarray,
            sizes: list[int], psf: SeparablePsf, refine: bool = False) -> list[FittedScatterer]:
    """Each region of a flat layout (`_fit_positions`) fitted, with its gain
    and residual in closed form from its best correlation."""
    (ys, xs, best), (indices, sv_all, ends) = _fit_positions(shape, indices, amplitudes,
                                                             sizes, psf)
    h, w = psf.shape
    psf_sq = psf.norm_sq
    fits, ends = [], ends.tolist()
    for a, b, best_y, best_x, best_c in zip([0, *ends], ends, ys, xs, best):
        sv = sv_all[a:b]
        fx, fy = float(best_x), float(best_y)
        if refine:
            sy, sx = np.divmod(indices[a:b], w)

            def corr_at(cy: int, cx: int) -> float:
                return float(sv @ (psf.row[(sy - cy) % h] * psf.col[(sx - cx) % w]))
            fy = best_y + _parabolic_offset(corr_at(best_y - 1, best_x), best_c,
                                            corr_at(best_y + 1, best_x))
            fx = best_x + _parabolic_offset(corr_at(best_y, best_x - 1), best_c,
                                            corr_at(best_y, best_x + 1))
        gain = best_c / psf_sq if psf_sq > 0 else 0.0
        resid_sq = float(sv @ sv) - 2 * gain * best_c + gain * gain * psf_sq
        fits.append(FittedScatterer(x=fx, y=fy, amplitude=gain,
                                    residual=math.sqrt(max(resid_sq, 0.0))))
    return fits


def fit_scatterer(region: ScatterRegion, psf: SeparablePsf,
                  refine: bool = False) -> FittedScatterer:
    """Least-squares fit of one shifted PSF to an extracted amplitude region.

    `region` is a `ScatterRegion` (anything else raises TypeError), and
    `psf` is the chip's `base_psf(window)`, of the region's frame (another
    frame raises DimMismatch). Only the region's positive pixels are scored.
    The fit minimizes || region - a * psf(x0, y0) ||_2 over integer (x0, y0)
    in the support bounding box dilated by 2 px, with the gain a given in
    closed form; since the psf norm is shift-invariant this is equivalent to
    maximizing the correlation with the shifted psf. Ties resolve to the
    smallest (y0, x0) in row-major order. This is the one-region case of the
    fit that `annotio.fit_regions` runs on all of a chip's regions.
    """
    if not isinstance(region, ScatterRegion):
        raise TypeError(f"expected a ScatterRegion, got {type(region).__name__}")
    (fit,) = _fitted(region.shape, region.indices, region.amplitudes, [region.indices.size],
                     psf, refine)
    return fit


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
                 min_separation: float = 3.0,
                 speckle: bool = False) -> SynthChip:
    """Draw a random scatterer layout and synthesize its chip + annotation.

    Positions are uniform, SYNTH_BORDER_PX clear of the edges, with a
    pairwise minimum separation (rejection-sampled; raises
    InfeasiblePlacement after 1000 failed draws for a point). The annotation
    is a randomly oriented rectangle enclosing all scatterers with a
    SYNTH_BOX_MARGIN_PX margin, re-drawn axis-aligned if the rotated one
    would leave the image.
    """
    if n_scatterers < 1:
        raise ValueError(f"need at least one scatterer, got {n_scatterers}")
    h, w = grid.height, grid.width
    if min(h, w) <= 2 * SYNTH_BORDER_PX:
        raise InfeasiblePlacement(f"{w}x{h} chip too small for {SYNTH_BORDER_PX}px margins")

    placed: list[tuple[float, float]] = []
    for _ in range(n_scatterers):
        for _attempt in range(1000):
            x = float(rng.uniform(SYNTH_BORDER_PX, w - SYNTH_BORDER_PX))
            y = float(rng.uniform(SYNTH_BORDER_PX, h - SYNTH_BORDER_PX))
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
        cand = _enclosing_box(positions, theta, SYNTH_BOX_MARGIN_PX)
        c = cand.corners
        if (c[:, 0] >= 0).all() and (c[:, 0] < w).all() and \
           (c[:, 1] >= 0).all() and (c[:, 1] < h).all():
            box = cand
            break
    if box is None:
        box = _enclosing_box(positions, 0.0, SYNTH_BOX_MARGIN_PX)

    image = synth_image(list(scatterers), grid, window)
    if speckle:
        image = apply_speckle(image, rng)
    return SynthChip(image=image, truth=scatterers, box=box)
