"""Point-scatterer forward model on the sampled frequency grid.

A scatterer with amplitude a at (x, y) contributes a linear phase ramp
a * exp(-j*2*pi*(kx*x/W + ky*y/H)) to the spectrum; the complex chip is the
windowed inverse FFT of the summed spectrum. For integer positions this makes
the image an exact cyclic shift of the window's point-spread function, which
is what the position fitter exploits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .decouple import ScatterRegion
from .errors import (DimMismatch, EmptyInput, EmptyRegion, InfeasiblePlacement,
                     OutOfBounds)
from .metrics import OrientedBox
from .raster import ComplexRaster, WindowRaster, _freeze, _unchecked, _unchecked_all

FIT_DILATE_PX = 2
SYNTH_BORDER_PX = 4.0
SYNTH_BOX_MARGIN_PX = 3.0


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
    return ComplexRaster(np.fft.ifft2(window.values * field.samples))


def _psf_axis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One factor of a `SeparablePsf`: the read-only float64 factor `v`, its
    (n + 1, n) strided windows and its squared norm."""
    n = v.size
    wrap = np.empty(2 * n)
    wrap[0] = v[0]
    wrap[1:n] = v[:0:-1]
    wrap[n:] = wrap[:n]
    step = wrap.strides[0]
    return v, as_strided(wrap, (n + 1, n), (step, step), writeable=False), float(v @ v)


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
    first. An axis of n samples holds 32 * n bytes (its key, factor and
    doubled wrap; the windows are a view), so the memo never holds more
    than PSF_MEMO_SIZE * 32 * n bytes for tapers of at most n samples
    (8 MiB for n = 1024).
    """
    v = np.abs(np.fft.ifft(np.frombuffer(taper)))
    v.setflags(write=False)
    return _psf_axis(v)


@dataclass(frozen=True, eq=False)
class SeparablePsf:
    """Amplitude response of a unit scatterer at (0, 0) under a separable window.

    The window is the outer product of two 1-D tapers, so its inverse DFT is
    the outer product of theirs and the PSF image is `outer(row, col)`. For
    the fit, each factor v of length n is flipped circularly and tiled twice,
    `wrap[k] = v[-k % n]`, and `row_windows`/`col_windows` are the (n + 1, n)
    strided views whose row k is `wrap[k:k + n]`, so that row k, entry j
    holds `v[-(k + j) % n]`. The constructor validates its factors and
    builds each axis with `_psf_axis`; `base_psf` builds its PSFs from
    cached axes through `raster._unchecked`.
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


@dataclass(frozen=True, eq=False)
class LaidOutRegion:
    """One region's positive pixels, laid out for `fit_scatterer` by
    `lay_out_regions`: the (h, w) frame, the pixels' rows, columns and
    values in ascending flat-index order, the bounds (ry0, ry1, rx0, rx1) of
    their bounding box, and that box as a block, zero off the pixels. Its
    arrays are read-only; it compares and hashes by identity."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    bounds: tuple[int, int, int, int]
    block: np.ndarray


def lay_out_regions(regions: list[ScatterRegion]) -> list[LaidOutRegion]:
    """The positive pixels of each region, laid out for the fit in one pass
    over all of them.

    The regions share one (h, w) frame, read off the first. One `divmod`
    over the concatenated supports gives every pixel's row and column. A
    region's indices ascend, so its first and last pixels give its rows,
    and `reduceat` gives its columns. Every bounding block is cut from one
    zeroed buffer, filled by one scatter. Raises TypeError for a region that
    is not a `ScatterRegion`, DimMismatch for regions of different frames and
    EmptyRegion for a region without a positive pixel.
    """
    if not regions:
        return []
    h, w = regions[0].shape
    for region in regions:
        if not isinstance(region, ScatterRegion):
            raise TypeError(f"expected a ScatterRegion, got {type(region).__name__}")
        if region.shape != (h, w):
            raise DimMismatch(f"region {region.shape} vs region {h}x{w}")
    sizes = np.array([region.indices.size for region in regions])
    idx = np.concatenate([region.indices for region in regions])
    val = np.concatenate([region.amplitudes for region in regions])
    keep = val > 0
    if not keep.all():  # a region may hold values <= 0
        sizes = np.add.reduceat(keep, np.cumsum(sizes) - sizes, dtype=np.intp)
        if not sizes.all():
            raise EmptyRegion("cannot fit a scatterer to an empty region")
        idx, val = idx[keep], val[keep]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sy, sx = np.divmod(idx, w)
    ry0, ry1 = sy[starts], sy[ends - 1]
    rx0, rx1 = np.minimum.reduceat(sx, starts), np.maximum.reduceat(sx, starts)
    widths = rx1 - rx0 + 1
    areas = (ry1 - ry0 + 1) * widths
    offsets = np.cumsum(areas) - areas
    buf = np.zeros(int(offsets[-1] + areas[-1]))
    # pixel y * w + x of region r goes to offsets[r] + (y - ry0[r]) * widths[r] + x - rx0[r]
    buf[np.repeat(offsets - ry0 * widths - rx0, sizes) + np.repeat(widths, sizes) * sy + sx] = val
    for arr in (sy, sx, val, buf):  # so that every view cut below is read-only
        arr.setflags(write=False)
    rows = []
    for a, b, o, y0, y1, x0, x1 in zip(starts.tolist(), ends.tolist(), offsets.tolist(),
                                       ry0.tolist(), ry1.tolist(), rx0.tolist(), rx1.tolist()):
        by, bx = y1 - y0 + 1, x1 - x0 + 1
        rows.append({"shape": (h, w), "rows": sy[a:b], "cols": sx[a:b], "values": val[a:b],
                     "bounds": (y0, y1, x0, x1), "block": buf[o:o + by * bx].reshape(by, bx)})
    return _unchecked_all(LaidOutRegion, rows)


def fit_scatterer(region: ScatterRegion | LaidOutRegion, psf: SeparablePsf,
                  refine: bool = False) -> FittedScatterer:
    """Least-squares fit of one shifted PSF to an extracted amplitude region.

    `region` is a `ScatterRegion` or one of `lay_out_regions`' results
    (anything else raises TypeError), and `psf` is the chip's
    `base_psf(window)`, of the region's frame (another frame raises
    DimMismatch). Only the region's positive pixels are scored. The fit
    minimizes || region - a * psf(x0, y0) ||_2 over integer (x0, y0) in the
    support bounding box dilated by 2 px, with the gain a given in closed
    form; since the psf norm is shift-invariant this is equivalent to
    maximizing the correlation with the shifted psf. Ties resolve to the
    smallest (y0, x0) in row-major order.
    """
    if not isinstance(region, LaidOutRegion):
        (region,) = lay_out_regions([region])
    h, w = psf.shape
    if region.shape != (h, w):
        raise DimMismatch(f"region {region.shape} vs psf {h}x{w}")
    sy, sx, sv, (ry0, ry1, rx0, rx1) = region.rows, region.cols, region.values, region.bounds

    # candidates: the support bounding box dilated by FIT_DILATE_PX, clamped
    y0, y1 = max(ry0 - FIT_DILATE_PX, 0), min(ry1 + FIT_DILATE_PX, h - 1)
    x0, x1 = max(rx0 - FIT_DILATE_PX, 0), min(rx1 + FIT_DILATE_PX, w - 1)
    ny, nx = y1 - y0 + 1, x1 - x0 + 1

    # support box pixel (r, c) meets the psf shifted to candidate (y0 + j,
    # x0 + i) at row[(ry0 + r - y0 - j) % h] * col[(rx0 + c - x0 - i) % w]
    ay = psf.row_windows[h + y0 - ry1:h + y0 - ry0 + 1, :ny][::-1]  # (by, ny)
    ax = psf.col_windows[w + x0 - rx1:w + x0 - rx0 + 1, :nx][::-1]  # (bx, nx)
    crop = ay.T @ (region.block @ ax)
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
