"""Iterative scattering-region extraction from a complex chip.

Each pass masks the 4-connected block around the residual's peak, grows it
over the residual in descending-amplitude order, lifts the grown region out
of the residual, and repeats — at most n_max times, or until the residual
peak drops below a configurable fraction of the original peak. That
fraction defaults to the design sidelobe level of the default Taylor
window, -35 dB (about 0.0178), and a run configuration with another window
level moves it there: the chips are formed through that window, so a
residual peak below it cannot be told apart from a sidelobe of a stronger
return, and peeling it off only feeds sidelobe debris to the fit and the
clustering. This is the stopping threshold of CLEAN-style peak-subtraction
loops (Hoegbom, A&AS 15, 1974). All tie-breaking is row-major, so results
are fully deterministic.

The loop runs in one padded working frame per chip (`_Frame`): the
one-pixel border of -inf stays below every threshold, so neither search
checks bounds, and padded flat indices keep the row-major order of unpadded
ones. A complex chip's amplitude is computed once, straight into that
frame: `annotate` passes each crop as it comes from `annotio.crop_chip`, a
read-only view of the image checked when it was read, so a crop is neither
copied nor checked before the loop reads it. The dB thresholds of
`DecoupleParams` become amplitude ratios once per call, and every test in
the loop compares amplitudes. Each step keeps its support as a sorted array
of padded indices: it reads the residual there and sets it to 0.0 in one
gather and one scatter, and clears the searches' marks there in another.
After the loop, one array holds every support's indices, converted to
unpadded ones in one pass, and one array the residual values there: this
flat layout (`_extract`), with each support's size, is what `annotate`
hands to the fit. `decouple` builds its regions from it, each holding
read-only views of its part; a region's full-frame images are built only
when read. `decouple` returns the regions alone: lifting a
region out sets the residual to 0.0 on its support, so the residual after
step i is the amplitude with the supports of steps 0..i set to 0.0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroRaster, EmptyRegion
from .raster import (AmplitudeRaster, ComplexRaster, _freeze, _require_finite, _require_index,
                     _unchecked_all)
from .spectral import DEFAULT_SIDELOBE_DB


@dataclass(frozen=True)
class DecoupleParams:
    """Thresholds of the extraction loop.

    `tau_db` and `grow_floor_db` are in dB relative to each step's residual
    peak. The loop stops once the residual peak falls below
    `min_peak_ratio` times the original peak (0 disables this stop; the
    first step's peak is the original peak, so 1 runs one step and above 1
    none would run). Its default is the default window's design sidelobe
    level as an amplitude ratio, 10^(-35/20) ~ 0.0178: below it a peak may
    be a sidelobe of a stronger return. Chips formed through another window
    want that window's level, 10 ** (sidelobe_db / 20); `config.load_config`
    sets it so when a config gives `window.sidelobe_db` but not this ratio.
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
        _require_index(n_max=self.n_max)
        if self.tau_db >= 0:
            raise ValueError(f"tau_db must be negative, got {self.tau_db}")
        if self.grow_floor_db > self.tau_db:
            raise ValueError("grow_floor_db must not exceed tau_db")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 <= self.min_peak_ratio <= 1:
            raise ValueError(f"min_peak_ratio must lie in [0, 1], got {self.min_peak_ratio}")


@dataclass(frozen=True, eq=False)
class ScatterRegion:
    """One extracted region of an (h, w) frame, stored by its support.

    `indices` are the support's flat row-major indices, strictly ascending,
    and `amplitudes` the region's values there, finite; off the support the
    region is zero. `peak`, `values` and `support` are computed on each
    access. The constructor validates its input; the extraction loop
    builds its regions, valid by construction, through `raster._unchecked_all`.
    """

    shape: tuple[int, int]
    indices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        h, w = self.shape
        _require_index(height=h, width=w)
        h, w = int(h), int(w)
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
        object.__setattr__(self, "shape", (h, w))
        object.__setattr__(self, "indices",
                           _freeze(idx.astype(np.int64, copy=False), self.indices))
        object.__setattr__(self, "amplitudes", _freeze(vals, self.amplitudes))

    @property
    def peak(self) -> tuple[int, int]:
        """(y, x) of the first maximum of `amplitudes`: the indices ascend,
        so it is the row-major first of the region's maxima."""
        return divmod(int(self.indices[self.amplitudes.argmax()]), self.shape[1])

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


class _Frame:
    """Padded working frame of a chip's amplitude.

    `vals` is a complex sample array, whose modulus is written straight
    into the frame's interior, or an amplitude array, which is copied in.
    `res` is the flat (h + 2) x (w + 2) residual, read through a memoryview,
    which indexes to Python floats. Its border is -inf, which fails every
    test, while with a large `eps` zero-valued pixels clear the grow floor's
    `v + eps > thr`. The bytes of `mark` are 1 on the current step's support
    and 0 elsewhere: `seed_block` marks the block it finds, `grow` takes
    that block as marked and marks each pixel it adds, and the step clears
    the marks on its support when it zeroes the residual there.
    """

    def __init__(self, vals: np.ndarray):
        h, w = vals.shape
        self.shape = (h, w)
        self.pw = w + 2
        res = np.full((h + 2, w + 2), -np.inf)
        if vals.dtype.kind == "c":
            np.abs(vals, out=res[1:-1, 1:-1])
        else:
            res[1:-1, 1:-1] = vals
        self.res = res.ravel()
        self.res_view = memoryview(self.res)
        self.mark = bytearray(res.size)
        self.n4 = (-self.pw, self.pw, -1, 1)
        self.n8 = (-self.pw - 1, -self.pw, -self.pw + 1, -1, 1,
                   self.pw - 1, self.pw, self.pw + 1)

    def seed_block(self, p: int, thr: float) -> list[int]:
        """4-connected pixels above thr, marked as found breadth-first from pixel p."""
        block = [p]
        mark, res = self.mark, self.res_view
        mark[p] = 1
        for y in block:
            for d in self.n4:
                q = y + d
                if not mark[q] and res[q] > thr:
                    mark[q] = 1
                    block.append(q)
        return block

    def grow(self, seeds: list[int], thr: float, eps: float) -> list[int]:
        """The marked seed block plus the pixels q with `v_q + eps > thr` that join label 1.

        This is label 1 of the full multi-label growth over the residual
        amplitudes `v`, in which a pixel joins the minimum label among its
        labeled 8-neighbors and the seed block is label 1: a pixel q joins
        when an 8-neighbor p already joined and p is a seed pixel, or p
        precedes q in the visiting order, `v_p > v_q`, or `v_p == v_q` and p
        comes first in row-major order.
        """
        support = list(seeds)
        n_seed = len(support)
        mark, res = self.mark, self.res_view
        for i, p in enumerate(support):
            v_p = res[p]
            exempt = i < n_seed
            for d in self.n8:
                q = p + d
                if mark[q]:
                    continue
                v_q = res[q]
                if v_q + eps > thr and (exempt or v_p > v_q or (v_p == v_q and p < q)):
                    mark[q] = 1
                    support.append(q)
        return support


def _extract(img: ComplexRaster | AmplitudeRaster, params: DecoupleParams
             ) -> tuple[tuple[int, int], np.ndarray, np.ndarray, list[int]]:
    """The extraction loop, whose regions leave it as one flat layout: the
    chip's (h, w), every support's ascending flat row-major indices into the
    chip, concatenated in step order, the residual values there, and each
    support's size. It raises what `decouple` raises.
    """
    frame = _Frame(img.values if isinstance(img, AmplitudeRaster) else img.samples)
    res, res_view, mark = frame.res, frame.res_view, np.frombuffer(frame.mark, np.uint8)
    orig_peak = res_view[res.argmax()]
    if not math.isfinite(orig_peak):
        raise ValueError("amplitude raster contains NaN/Inf values")
    if orig_peak == 0.0:
        raise AllZeroRaster("cannot decouple an all-zero chip")
    floor = params.min_peak_ratio * orig_peak
    block_ratio = 10.0 ** (params.tau_db / 10.0)
    grow_ratio = 10.0 ** (params.grow_floor_db / 10.0)

    supports, amps, sizes = [], [], []  # the first step always runs
    for _ in range(params.n_max):
        p = int(res.argmax())  # row-major first on ties
        peak = res_view[p]
        if peak == 0.0 or peak < floor:
            break
        seeds = frame.seed_block(p, peak * block_ratio)
        sup = np.array(sorted(frame.grow(seeds, peak * grow_ratio, params.eps)))
        amps.append(res[sup])
        res[sup] = 0.0
        mark[sup] = 0
        supports.append(sup)
        sizes.append(sup.size)
    padded = np.concatenate(supports)
    # padded (y + 1) * (w + 2) + x + 1 to unpadded y * w + x
    unpadded = padded - 2 * (padded // frame.pw) - (frame.pw - 1)
    return frame.shape, unpadded, np.concatenate(amps), sizes


def decouple(img: ComplexRaster | AmplitudeRaster,
             params: DecoupleParams = DecoupleParams()) -> list[ScatterRegion]:
    """Extract up to n_max scattering regions, brightest first, until the
    cap, an all-zero residual, or a residual peak under the floor.

    A complex chip's amplitude is computed once, into the working frame; a
    modulus that overflows raises the ValueError `AmplitudeRaster` raises.
    """
    shape, indices, amps, sizes = _extract(img, params)
    # each support is ascending and in the frame; the regions hold views of
    # two fresh C-contiguous int64/float64 arrays, read-only from here on
    indices.setflags(write=False)
    amps.setflags(write=False)
    ends = itertools.accumulate(sizes)
    return _unchecked_all(ScatterRegion, [
        {"shape": shape, "indices": indices[b - n:b], "amplitudes": amps[b - n:b]}
        for n, b in zip(sizes, ends)])
