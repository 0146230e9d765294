"""Iterative scattering-region extraction from a complex chip.

Each pass masks the 4-connected block around the residual's peak, grows it
over the log-amplitude surface in descending-brightness order, lifts the
grown region out of the residual, and repeats — at most n_max times, or
until the residual peak drops below a configurable fraction of the original
peak. That fraction defaults to the design sidelobe level of the default
Taylor window, -35 dB (about 0.0178), and a run configuration with another
window level moves it there: the chips are formed through that window, so a residual peak below it cannot be told apart from a sidelobe of
a stronger return, and peeling it off only feeds sidelobe debris to the fit
and the clustering. This is the stopping threshold of CLEAN-style
peak-subtraction loops (Hoegbom, A&AS 15, 1974). All tie-breaking is
row-major, so results are fully deterministic.

The loop runs in one padded working frame per chip (`_Frame`): the
one-pixel border of -inf stays below every threshold, so neither search
checks bounds, and padded flat indices keep the row-major order of unpadded
ones. The log-amplitude `peak_db` is monotone in the amplitude, so the flood
compares residual amplitudes against a per-step threshold equivalent to the
dB floor, and computes dB only to settle a comparison too close to call in
amplitudes. A region leaves the loop as its ascending flat support indices
and the residual values there; its full-frame images are built only when
read. `decouple` returns the regions alone: lifting a region out sets the
residual to 0.0 on its support, so the residual after step i is the
amplitude with the supports of steps 0..i set to 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroRaster, EmptyRegion
from .raster import (AmplitudeRaster, ComplexRaster, _freeze, _require_finite,
                     amplitude, peak_db)
from .spectral import DEFAULT_SIDELOBE_DB


# relative half-width of the amplitude bands in which the flood settles a
# test on peak_db; far wider than peak_db's rounding (see `_Frame.grow`)
_DB_BAND = 1e-9


@dataclass(frozen=True)
class DecoupleParams:
    """Thresholds of the extraction loop.

    `tau_db` and `grow_floor_db` are in dB relative to each step's residual
    peak. The loop stops once the residual peak falls below
    `min_peak_ratio` times the original peak (0 disables this stop). Its
    default is the default window's design sidelobe level as an amplitude
    ratio, 10^(-35/20) ~ 0.0178: below it a peak may be a sidelobe of a
    stronger return. Chips formed through another window want that
    window's level, 10 ** (sidelobe_db / 20); `config.load_config` sets it
    so when a config gives `window.sidelobe_db` but not this ratio.
    """

    tau_db: float = -3.0
    eps: float = 1e-6
    n_max: int = 20
    grow_floor_db: float = -20.0
    min_peak_ratio: float = 10 ** (DEFAULT_SIDELOBE_DB / 20)

    def __post_init__(self):
        _require_finite(tau_db=self.tau_db, eps=self.eps,
                        grow_floor_db=self.grow_floor_db,
                        min_peak_ratio=self.min_peak_ratio)
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
    """One extracted region of an (h, w) frame, stored by its support.

    `indices` are the support's flat row-major indices, strictly ascending,
    and `amplitudes` the region's values there, finite; off the support the
    region is zero. `values`, `support` and `energy` are computed on each
    access. The constructor validates its input; the extraction loop builds
    its regions, valid by construction, through `_trusted` instead.
    """

    shape: tuple[int, int]
    indices: np.ndarray
    amplitudes: np.ndarray
    peak: tuple[int, int]  # (y, x)

    def __post_init__(self):
        h, w = (int(n) for n in self.shape)
        if h < 1 or w < 1:
            raise ValueError(f"region frame must be non-empty, got {h}x{w}")
        idx = np.asarray(self.indices)
        vals = np.asarray(self.amplitudes, dtype=np.float64)
        if idx.ndim != 1 or vals.shape != idx.shape:
            raise ValueError("indices and amplitudes must be 1-D and of one length")
        if idx.size == 0:
            raise EmptyRegion("region support is empty")
        if idx.dtype.kind not in "iu":
            raise ValueError("support indices must be integers")
        if not np.isfinite(vals).all():
            raise ValueError("region amplitudes must be finite")
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            raise ValueError("support indices must be strictly ascending")
        if idx[0] < 0 or idx[-1] >= h * w:
            raise ValueError(f"support indices must lie in [0, {h * w})")
        py, px = (int(v) for v in self.peak)
        at = int(np.searchsorted(idx, py * w + px))
        if not (0 <= py < h and 0 <= px < w) or at == idx.size or idx[at] != py * w + px:
            raise ValueError("peak must lie inside the support")
        if vals[at] != vals.max():
            raise ValueError("peak must attain the region maximum")
        object.__setattr__(self, "shape", (h, w))
        object.__setattr__(self, "indices",
                           _freeze(idx.astype(np.int64, copy=False), self.indices))
        object.__setattr__(self, "amplitudes", _freeze(vals, self.amplitudes))
        object.__setattr__(self, "peak", (py, px))

    @classmethod
    def _trusted(cls, shape: tuple[int, int], indices: np.ndarray,
                 amplitudes: np.ndarray, peak: tuple[int, int]) -> ScatterRegion:
        """A region without validation, for input that already meets every
        rule the constructor checks: `shape` and `peak` tuples of ints, and
        `indices`/`amplitudes` fresh C-contiguous int64/float64 arrays, which
        are frozen in place."""
        region = object.__new__(cls)
        indices.setflags(write=False)
        amplitudes.setflags(write=False)
        object.__setattr__(region, "shape", shape)
        object.__setattr__(region, "indices", indices)
        object.__setattr__(region, "amplitudes", amplitudes)
        object.__setattr__(region, "peak", peak)
        return region

    @property
    def values(self) -> np.ndarray:
        """Full-frame region values, zero off the support."""
        out = np.zeros(self.shape)
        out.ravel()[self.indices] = self.amplitudes
        return out

    @property
    def support(self) -> np.ndarray:
        """Full-frame boolean support mask."""
        out = np.zeros(self.shape, dtype=bool)
        out.ravel()[self.indices] = True
        return out

    @property
    def energy(self) -> float:
        """Sum of squared values, summed over the full frame in row-major order."""
        vals = self.values
        return float(np.sum(vals * vals))


class _Frame:
    """Padded working copy of an amplitude raster.

    `res` is the flat (h + 2) x (w + 2) residual, read through a memoryview,
    which indexes to Python floats. Its border is -inf, below every
    threshold: with a large `eps` the grow threshold drops below zero, and
    zero-valued pixels pass it. A search marks the pixels it takes with its
    own stamp in `mark`, so no mask is cleared between steps.
    """

    def __init__(self, vals: np.ndarray):
        h, w = vals.shape
        self.shape = (h, w)
        self.pw = w + 2
        res = np.full((h + 2, w + 2), -np.inf)
        res[1:-1, 1:-1] = vals
        self.res = res.ravel()
        # unpadded flat index of each padded one; border entries are never read
        self.unpadded = np.add.outer(np.arange(-1, h + 1) * w, np.arange(-1, w + 1)).ravel()
        self.res_view = memoryview(self.res)
        self.mark = [0] * res.size
        self.stamp = 0
        self.n4 = (-self.pw, self.pw, -1, 1)
        self.n8 = (-self.pw - 1, -self.pw, -self.pw + 1, -1, 1,
                   self.pw - 1, self.pw, self.pw + 1)

    def _claim(self, pixels: list[int]) -> int:
        self.stamp += 1
        for q in pixels:
            self.mark[q] = self.stamp
        return self.stamp

    def seed_block(self, p: int, thr: float) -> list[int]:
        """4-connected pixels above thr, found breadth-first from pixel p."""
        block = [p]
        stamp, mark, res = self._claim(block), self.mark, self.res_view
        for y in block:
            for d in self.n4:
                q = y + d
                if mark[q] != stamp and res[q] > thr:
                    mark[q] = stamp
                    block.append(q)
        return block

    def grow(self, seeds: list[int], peak: float, params: DecoupleParams) -> list[int]:
        """Seed block plus the above-floor pixels that join label 1.

        This is label 1 of the full multi-label growth over the residual's
        `peak_db`, in which a pixel joins the minimum label among its
        labeled 8-neighbors and the seed block is label 1: a pixel q joins
        when an 8-neighbor p already joined and p is a seed pixel, or p
        precedes q in the descending-dB, row-major visiting order.

        `peak_db` is monotone in the amplitude, so both tests run on the
        residual amplitudes `v`. q clears the floor when `v_q >= hi` and
        fails it when `v_q <= lo`, the amplitudes a relative 1e-9 either side
        of `peak * 10^(floor/10) - eps`; p precedes q when `v_p - v_q > tol`
        and does not when `v_p - v_q < -tol`, with `tol = 1e-9 * (v_p + eps)`.
        In between, `peak_db` settles the test as the dB flood does: two
        amplitudes a few ulps apart can round to one dB value and then tie
        row-major. The bands are sound while the ratios `(v + eps) / peak`
        at and above the floor are normal floats, whose dB is off by well
        under 1e-11 of the ratio; when `10^(floor/10)` or
        `peak * 10^(floor/10)` is below 1e-300, every test is settled in dB.
        A ratio too large to be normal needs `eps` far above the peak, and
        then every order test falls in its band and every pixel clears the
        floor.
        """
        eps, floor_db = params.eps, params.grow_floor_db
        floor_ratio = 10.0 ** (floor_db / 10.0)
        x = peak * floor_ratio
        if floor_ratio >= 1e-300 and x >= 1e-300:
            band = _DB_BAND
            lo, hi = x * (1.0 - band) - eps, x * (1.0 + band) - eps
        else:  # the floor or its ratio to the peak leaves the normal range
            band, lo, hi = np.inf, -np.inf, np.inf
        support = list(seeds)
        n_seed = len(support)
        stamp, mark, res = self._claim(support), self.mark, self.res_view
        for i, p in enumerate(support):
            v_p = res[p]
            exempt = i < n_seed
            tol = band * (v_p + eps)
            for d in self.n8:
                q = p + d
                if mark[q] == stamp:
                    continue
                v_q = res[q]
                if v_q <= lo or (v_q < hi and
                                 peak_db(np.array([v_q]), peak, eps)[0] <= floor_db):
                    continue
                gap = v_p - v_q
                if exempt or gap > tol or (gap >= -tol and
                                           _db_precedes(p, v_p, q, v_q, peak, eps)):
                    mark[q] = stamp
                    support.append(q)
        return support


def _db_precedes(p: int, v_p: float, q: int, v_q: float, peak: float, eps: float) -> bool:
    """Whether pixel p precedes q in the descending-dB, row-major order."""
    p_db, q_db = peak_db(np.array([v_p, v_q]), peak, eps)
    return p_db > q_db or (p_db == q_db and p < q)


def decouple(img: ComplexRaster | AmplitudeRaster,
             params: DecoupleParams = DecoupleParams()) -> list[ScatterRegion]:
    """Extract up to n_max scattering regions, brightest first, until the
    cap, an all-zero residual, or a residual peak under the floor."""
    amp = img if isinstance(img, AmplitudeRaster) else amplitude(img)
    frame = _Frame(amp.values)
    res = frame.res
    orig_peak = frame.res_view[int(np.argmax(res))]
    if orig_peak == 0.0:
        raise AllZeroRaster("cannot decouple an all-zero chip")
    floor = params.min_peak_ratio * orig_peak
    block_ratio = 10.0 ** (params.tau_db / 10.0)

    regions = []
    for _ in range(params.n_max):
        p = int(np.argmax(res))  # row-major first on ties
        peak = frame.res_view[p]
        if peak == 0.0 or peak < floor:
            break
        seeds = frame.seed_block(p, peak * block_ratio)
        sup = np.array(sorted(frame.grow(seeds, peak, params)))
        amps = res[sup]
        res[sup] = 0.0
        py, px = divmod(p, frame.pw)
        # sup is ascending and in the frame, and the peak attains the maximum
        regions.append(ScatterRegion._trusted(frame.shape, frame.unpadded[sup], amps,
                                              (py - 1, px - 1)))
    return regions
