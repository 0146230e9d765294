"""Iterative scattering-region extraction from a complex chip.

Each pass masks the 4-connected block around the residual's peak, grows it
over the log-amplitude surface in descending-brightness order, lifts the
grown region out of the residual, and repeats — at most n_max times, or
until the residual peak drops below a configurable fraction of the original
peak. All tie-breaking is row-major, so results are fully deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import AllZeroRaster, EmptyRegion
from .raster import AmplitudeRaster, ComplexRaster, amplitude, _freeze

N4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class DecoupleParams:
    """Thresholds of the extraction loop, all in residual-relative dB."""

    tau_db: float = -3.0
    eps: float = 1e-6
    n_max: int = 20
    grow_floor_db: float = -20.0
    # stop when residual peak < ratio * original peak; 0 disables early stop
    min_peak_ratio: float = 1e-3

    def __post_init__(self):
        if self.tau_db >= 0:
            raise ValueError(f"tau_db must be negative, got {self.tau_db}")
        if self.grow_floor_db > self.tau_db:
            raise ValueError("grow_floor_db must not exceed tau_db")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.min_peak_ratio < 0:
            raise ValueError(f"min_peak_ratio must be >= 0, got {self.min_peak_ratio}")


@dataclass(frozen=True)
class ScatterRegion:
    """One extracted region: full-frame values, zero off its support."""

    values: np.ndarray
    support: np.ndarray
    peak: tuple[int, int]  # (y, x)
    energy: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        sup = np.asarray(self.support, dtype=bool)
        if vals.shape != sup.shape:
            raise ValueError("values/support shape mismatch")
        if not sup.any():
            raise EmptyRegion("region support is empty")
        if np.any(vals[~sup] != 0):
            raise ValueError("values must be exactly zero off support")
        py, px = self.peak
        if not sup[py, px]:
            raise ValueError("peak must lie inside the support")
        if vals[py, px] != vals[sup].max():
            raise ValueError("peak must attain the region maximum")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "support", _freeze(sup))


@dataclass(frozen=True)
class DecoupleStep:
    """One loop iteration: the region and the residual after it."""

    region: ScatterRegion
    residual: np.ndarray


def mask_block_bfs(r: AmplitudeRaster, tau_db: float) -> np.ndarray:
    """4-connected block of pixels above peak * 10^(tau/10), seeded at the peak."""
    vals = r.values
    peak = float(vals.max())
    if peak == 0.0:
        raise AllZeroRaster("cannot mask a block on an all-zero raster")
    thr = peak * 10.0 ** (tau_db / 10.0)
    h, w = vals.shape
    seed = int(np.argmax(vals))  # row-major first on ties
    sy, sx = divmod(seed, w)
    mask = np.zeros((h, w), dtype=bool)
    mask[sy, sx] = True
    queue = deque([(sy, sx)])
    while queue:
        y, x = queue.popleft()
        for dy, dx in N4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and not mask[ny, nx] and vals[ny, nx] > thr:
                mask[ny, nx] = True
                queue.append((ny, nx))
    return mask


def region_grow(r: AmplitudeRaster, seed_mask: np.ndarray,
                params: DecoupleParams) -> np.ndarray:
    """Support of the seed block's region after descending-dB growth.

    The growth visits pixels above the grow floor brightest-first (row-major
    on ties); a pixel joins the minimum label among its labeled 8-neighbors,
    and the seed block is label 1. Label 1 wins every pixel that touches it,
    so its region is the seed block plus every above-floor pixel q reached
    by an 8-neighbor step from p, where p is a seed pixel or p precedes q in
    the visiting order. Only that region is flooded; the boolean mask of it
    is returned.
    """
    vals = r.values
    seed = np.asarray(seed_mask, dtype=bool)
    if not seed.any():
        raise EmptyRegion("seed mask is empty")
    peak = float(vals.max())
    if peak == 0.0:
        raise AllZeroRaster("cannot grow regions on an all-zero raster")
    h, w = vals.shape
    db = 10.0 * np.log10((vals + params.eps) / peak)

    # one-pixel border of -inf (below any floor) removes the bounds checks;
    # padded flat indices keep the row-major order of the unpadded ones
    pw = w + 2
    pdb = np.full((h + 2, pw), -np.inf)
    pdb[1:-1, 1:-1] = db
    flat_db = pdb.ravel()
    above = flat_db > params.grow_floor_db
    pseed = np.zeros((h + 2, pw), dtype=bool)
    pseed[1:-1, 1:-1] = seed
    in_seed = pseed.ravel()
    support = in_seed.copy()
    offsets = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)

    stack = np.flatnonzero(in_seed).tolist()
    while stack:
        p = stack.pop()
        p_db = flat_db[p]
        exempt = in_seed[p]
        for d in offsets:
            q = p + d
            if support[q] or not above[q]:
                continue
            q_db = flat_db[q]
            if exempt or p_db > q_db or (p_db == q_db and p < q):
                support[q] = True
                stack.append(q)
    return support.reshape(h + 2, pw)[1:-1, 1:-1].copy()


def decouple_steps(img: ComplexRaster | AmplitudeRaster,
                   params: DecoupleParams = DecoupleParams()) -> Iterator[DecoupleStep]:
    """Yield extraction steps until the cap, an empty residual, or the floor."""
    amp = img if isinstance(img, AmplitudeRaster) else amplitude(img)
    residual = amp.values.copy()
    orig_peak = float(residual.max())
    if orig_peak == 0.0:
        raise AllZeroRaster("cannot decouple an all-zero chip")
    floor = params.min_peak_ratio * orig_peak

    for _ in range(params.n_max):
        peak = float(residual.max())
        if peak == 0.0 or peak < floor:
            break
        cur = AmplitudeRaster(residual)
        seed = mask_block_bfs(cur, params.tau_db)
        sup = region_grow(cur, seed, params)
        region_vals = np.where(sup, residual, 0.0)
        py, px = divmod(int(np.argmax(residual)), residual.shape[1])
        region = ScatterRegion(
            values=region_vals, support=sup, peak=(py, px),
            energy=float(np.sum(region_vals * region_vals)))
        residual = np.maximum(residual - region_vals, 0.0)
        yield DecoupleStep(region=region, residual=residual.copy())


def decouple(img: ComplexRaster | AmplitudeRaster,
             params: DecoupleParams = DecoupleParams()) -> list[ScatterRegion]:
    """Extract up to n_max scattering regions, brightest first."""
    return [step.region for step in decouple_steps(img, params)]
