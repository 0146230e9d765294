"""Reference implementations the library's faster paths are checked against.

`decouple_residuals` pairs each of `decouple`'s regions with the residual
after it, rebuilt from the regions alone: the amplitude with the supports of
that region and every earlier one set to 0.0.

`decouple_steps_dense` is the extraction loop on full-frame arrays, with
`mask_block_dense` and `grow_support_dense` as its two searches: every step
re-wraps the residual, pads fresh amplitude, seed and support frames, and
lifts the region out with full-frame `where`/`maximum` passes. The library
runs the same loop in one padded working frame and hands regions on as
support indices. Both floods visit pixels in descending-amplitude order,
row-major on equal amplitudes, and take a pixel above the floor when
`v + eps > peak * 10^(grow_floor_db/10)`. `grow_support_db` is the retired
flood over the log amplitude `peak_db`, `10*log10((v + eps) / peak)`, in
which two amplitudes that round to one dB value tie row-major: on realistic
inputs it gives the same supports. `grow_labels` is the full multi-label
region growth that the loop's flood reduces to its label-1 support;
`fit_direct` is the per-candidate loop over a 2-D PSF image that
`fit_scatterer` replaces with two products of the separable PSF's factors
over the support's bounding box, with its own candidate box from full-frame
row and column scans of the support.
`fit_fft` is the retired large-region path: the circular cross-correlation
of the full frame with the 2-D PSF by the correlation theorem, cropped to
the same candidate box. `fit_block_2d` is `fit_scatterer` as it was before
it read the support rows off the first and last index: it takes every bound
from the support's row and column arrays and scatters the support into its
bounding block by 2-D fancy indexing, where `fit_scatterer` uses one flat
index. `fit_per_region` is `fit_scatterer` before the fit laid out all of
an instance's supports in one pass (`ascmodel.lay_out_regions`): each
region took its own positive mask, `divmod`, bounds and zeroed block.
`positive_region` is the `ScatterRegion` of a dense frame's positive
pixels, for fitting a full-frame array as the retired array form of
`fit_scatterer` did. `psf_2d` is the PSF as the
2-D inverse DFT of the window, and `refine_offsets` the parabolic refinement
from full-frame rolls of that image.

`cluster_keypoints_numpy` is k-means on numpy arrays, with its k-means++
seeding in `kmeans_pp_init_numpy`: every Lloyd update takes all centroids
from two weighted `bincount`s. `cluster_keypoints` runs the same steps on
Python floats. `cluster_keypoints_loop` is k-means with each centroid
update as a loop over the clusters, a mean over each one's members, and its
distances as a sum over the last axis. `kmeans_pp_init_choice` is the
k-means++ seeding with each weighted draw by `Generator.choice`, which
`kmeans_pp_init_numpy` repeats from the same stream with its own
cumulative sum and search.

`rotated_iou_np` is the rotated-box IoU in numpy scalar arithmetic: every
call recomputes both boxes' shoelace areas (`signed_area_roll`, with
`np.roll`) and counter-clockwise corner orders (`box_area`, `box_ccw`), then
clips with `clip_convex_np`. `degenerate_reason` is the box validation
those corners went through, on numpy rows. `OrientedBox` computes the area
and the CCW order once, and `metrics` clips on plain floats.

`box_fields_scalar` is the retired `OrientedBox` constructor: every check
and stored value (`_area`, `_centroid`, `_ccw_pts`, `_reach`) derived for
one box on Python floats, with `_ccw`, the CCW corner array that
`ccw_corners()` builds, and `oriented_box_scalar` a box built from the
stored values. `parse_annotation_per_line` and `parse_predictions_per_line`
are the retired parsers that built each line's box on its own, as that
constructor. The library derives all of a file's boxes from one stack of
corners in one call (`metrics._box_fields`), each row on Python floats and
bit for bit as that constructor, and a single `OrientedBox` is its
one-row case.

`clip_convex_scalar` is the retired Sutherland-Hodgman clip: each edge
takes the list of its signed distances, walks it by `% m` indexing and
cuts by `cut_scalar`. `signed_area_scalar` is the retired shoelace area,
its halved terms about the first point summed by `_pairwise_sum`, and
`clipped_iou_scalar` the IoU from the two. The library runs the same float
operations in the same order in one pass per edge (`metrics._clip_convex`)
and takes the area inline (`metrics._clipped_iou`).

`rotated_iou_scalar` is the retired single-pair path: the rejection rule
(R1) for one pair on Python floats (`beyond_reach`, with its reach from
`clip_reach_scalar`), then `clipped_iou_scalar`. The library holds R1 and
its reach once, on arrays (`metrics._skip_mask`, `metrics.clip_reach`), and
scores a single pair as the 1 x 1 `metrics.iou_matrix`.
`average_precision_grouped_scalar` and `max_ious_scalar` are the retired
per-pair loops: AP calls `rotated_iou_scalar` for each detection against
each of its image's GT boxes still unmatched, in rank order, and `max_ious`
for every (proposal, GT) pair. The library scores each pair once, in one IoU
matrix per image (`metrics.iou_matrix`), and matches on its rows.
`envelope_ap_np` is the retired AP integral over numpy scalars, and
`hit_rates_loop` the retired hit rates, one `np.mean` per threshold; the
library integrates on Python floats (`metrics._envelope_ap`) and compares
every threshold at once (`metrics._hit_rates`).

`gt_scatter_map_max` is the retired supervision map: one full-frame `exp`
per keypoint, merged by a running `np.maximum`. The library takes the
least squared distance to a keypoint first and one `exp` of it
(`supervision.gt_scatter_map`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from scatterkit.annotio import InstanceAnnotation
from scatterkit.ascmodel import FIT_DILATE_PX, FittedScatterer, SeparablePsf
from scatterkit.decouple import DecoupleParams, ScatterRegion, decouple
from scatterkit.errors import (AllZeroRaster, BadKeypointCount, DegenerateBox, DimMismatch,
                               EmptyInput, EmptyRegion, MalformedLine, OutOfBounds,
                               ScatterKitError)
from scatterkit.keypoints import KMEANS_MAX_ITER, KMEANS_TOL, KeypointSet, _pairwise_sum
from scatterkit.metrics import (_MAX_COORD, _MIN_SINE, COLLINEAR_TOL, ROUNDING_PER_PX,
                                SLIVER_AREA, Detection, OrientedBox)
from scatterkit.raster import AmplitudeRaster, ComplexRaster, WindowRaster, _unchecked, amplitude
from scatterkit.supervision import ScatterMap, _exponent_scale

N4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
N8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class DenseStep:
    """One step of the dense loop: full-frame region values and support,
    the peak (y, x), and the residual after the step."""

    values: np.ndarray
    support: np.ndarray
    peak: tuple[int, int]
    residual: np.ndarray


@dataclass(frozen=True)
class LoopStep:
    """One region of `decouple` and the full-frame residual after it."""

    region: ScatterRegion
    residual: np.ndarray


def decouple_residuals(img: ComplexRaster | AmplitudeRaster,
                       params: DecoupleParams = DecoupleParams()) -> list[LoopStep]:
    """`decouple(img, params)`, each region with the residual after it."""
    amp = img if isinstance(img, AmplitudeRaster) else amplitude(img)
    residual = amp.values.copy()
    steps = []
    for region in decouple(amp, params):
        residual.ravel()[region.indices] = 0.0
        steps.append(LoopStep(region=region, residual=residual.copy()))
    return steps


def mask_block_dense(r: AmplitudeRaster, tau_db: float) -> np.ndarray:
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


def peak_db(values: np.ndarray, peak: float, eps: float) -> np.ndarray:
    """10*log10((values + eps) / peak), elementwise: the retired flood's dB."""
    return 10.0 * np.log10((values + eps) / peak)


def _padded_flood(seed_mask: np.ndarray, above: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Label-1 support of the flood from `seed_mask` over the pixels flagged
    in `above`, in which p precedes q when `key[p] > key[q]`, or the keys
    are equal and p comes first in row-major order."""
    seed = np.asarray(seed_mask, dtype=bool)
    if not seed.any():
        raise EmptyRegion("seed mask is empty")
    h, w = seed.shape
    pw = w + 2

    def padded(a, fill):
        out = np.full((h + 2, pw), fill, dtype=a.dtype)
        out[1:-1, 1:-1] = a
        return out.ravel()

    flat_key, flat_above = padded(key, -np.inf), padded(above, False)
    in_seed = padded(seed, False)
    support = in_seed.copy()
    offsets = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)

    stack = np.flatnonzero(in_seed).tolist()
    while stack:
        p = stack.pop()
        k_p = flat_key[p]
        exempt = in_seed[p]
        for d in offsets:
            q = p + d
            if support[q] or not flat_above[q]:
                continue
            k_q = flat_key[q]
            if exempt or k_p > k_q or (k_p == k_q and p < q):
                support[q] = True
                stack.append(q)
    return support.reshape(h + 2, pw)[1:-1, 1:-1].copy()


def _peak(r: AmplitudeRaster) -> float:
    peak = float(r.values.max())
    if peak == 0.0:
        raise AllZeroRaster("cannot grow regions on an all-zero raster")
    return peak


def grow_support_dense(r: AmplitudeRaster, seed_mask: np.ndarray,
                       params: DecoupleParams) -> np.ndarray:
    """Label-1 support of `grow_labels`, flooded over a padded amplitude frame."""
    thr = _peak(r) * 10.0 ** (params.grow_floor_db / 10.0)
    return _padded_flood(seed_mask, r.values + params.eps > thr, r.values)


def grow_support_db(r: AmplitudeRaster, seed_mask: np.ndarray,
                    params: DecoupleParams) -> np.ndarray:
    """The retired flood: `grow_support_dense` with `peak_db` as both the
    order and the floor test, `peak_db > grow_floor_db`."""
    db = peak_db(r.values, _peak(r), params.eps)
    return _padded_flood(seed_mask, db > params.grow_floor_db, db)


def decouple_steps_dense(amp: AmplitudeRaster,
                         params: DecoupleParams = DecoupleParams()) -> Iterator[DenseStep]:
    """The extraction loop on full-frame arrays, one `DenseStep` per region."""
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
        seed = mask_block_dense(cur, params.tau_db)
        sup = grow_support_dense(cur, seed, params)
        region_vals = np.where(sup, residual, 0.0)
        py, px = divmod(int(np.argmax(residual)), residual.shape[1])
        residual = np.maximum(residual - region_vals, 0.0)
        yield DenseStep(values=region_vals, support=sup, peak=(py, px),
                        residual=residual.copy())


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel region labels; 0 = unlabeled, seed block is always label 1."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("labels must be a 2-D integer array")
        if arr.min() < 0:
            raise ValueError("labels must be non-negative")
        top = int(arr.max())
        present = set(np.unique(arr).tolist())
        if top > 0 and not set(range(1, top + 1)) <= present:
            raise ValueError("labels must cover a contiguous range")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def grow_labels(r: AmplitudeRaster, seed_mask: np.ndarray,
                params: DecoupleParams) -> LabelMap:
    """Grow labels over the residual amplitudes in descending order.

    Pixels with `v + eps > peak * 10^(grow_floor_db/10)` are visited
    brightest-first (row-major on ties). A pixel joins the minimum label
    among its labeled 8-neighbors; with no labeled neighbor it founds a new
    label only if it also clears tau_db, `v + eps > peak * 10^(tau_db/10)`,
    otherwise it stays unlabeled.
    """
    vals = r.values
    if not np.asarray(seed_mask, dtype=bool).any():
        raise EmptyRegion("seed mask is empty")
    peak = _peak(r)
    h, w = vals.shape
    lifted = vals + params.eps

    labels = np.zeros((h, w), dtype=np.int32)
    labels[np.asarray(seed_mask, dtype=bool)] = 1
    next_label = 2

    flat = vals.ravel()
    omega = np.flatnonzero(lifted.ravel() > peak * 10.0 ** (params.grow_floor_db / 10.0))
    order = omega[np.argsort(-flat[omega], kind="stable")]
    found_thr = peak * 10.0 ** (params.tau_db / 10.0)

    flat_labels = labels.ravel()
    for q in order:
        if flat_labels[q]:
            continue
        y, x = divmod(int(q), w)
        best = 0
        for dy, dx in N8:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w:
                lab = labels[ny, nx]
                if lab and (best == 0 or lab < best):
                    best = lab
        if best:
            labels[y, x] = best
        elif lifted[y, x] > found_thr:
            labels[y, x] = next_label
            next_label += 1
    return LabelMap(labels)


def positive_region(values: np.ndarray) -> ScatterRegion:
    """The `ScatterRegion` of a dense frame's positive pixels: what the fit
    scores of a full-frame region array."""
    idx = np.flatnonzero(values > 0)
    return ScatterRegion(shape=values.shape, indices=idx, amplitudes=values.ravel()[idx])


def _candidate_bbox(support: np.ndarray, h: int, w: int) -> tuple[int, int, int, int]:
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    y0 = max(int(rows[0]) - FIT_DILATE_PX, 0)
    y1 = min(int(rows[-1]) + FIT_DILATE_PX, h - 1)
    x0 = max(int(cols[0]) - FIT_DILATE_PX, 0)
    x1 = min(int(cols[-1]) + FIT_DILATE_PX, w - 1)
    return y0, y1, x0, x1


def fit_direct(region: np.ndarray, psf: np.ndarray) -> FittedScatterer:
    """Integer-lattice fit by one dot product per candidate, no refinement.

    Candidates are the support bounding box dilated as in `fit_scatterer`;
    ties resolve to the first candidate in row-major order.
    """
    h, w = psf.shape
    support = region > 0
    y0, y1, x0, x1 = _candidate_bbox(support, h, w)
    sup_idx = np.flatnonzero(support.ravel())
    sy, sx = np.unravel_index(sup_idx, (h, w))
    sv = region.ravel()[sup_idx]
    best_c, best_y, best_x = -1.0, y0, x0
    for cy in range(y0, y1 + 1):
        by = (sy - cy) % h
        for cx in range(x0, x1 + 1):
            c = float(np.dot(sv, psf[by, (sx - cx) % w]))
            if c > best_c:
                best_c, best_y, best_x = c, cy, cx
    psf_sq = float(np.sum(psf * psf))
    gain = best_c / psf_sq
    resid_sq = float(np.sum(region * region)) - 2 * gain * best_c + gain * gain * psf_sq
    return FittedScatterer(x=float(best_x), y=float(best_y), amplitude=gain,
                           residual=float(np.sqrt(max(resid_sq, 0.0))))


def fit_fft(region: np.ndarray, psf: np.ndarray) -> FittedScatterer:
    """Integer-lattice fit scored by one full-frame FFT correlation.

    ifft2(F(S) conj(F(P))) is the circular cross-correlation
    sum_n S[n] P[n - m] with no extra scale; the candidate box and the
    row-major tie rule are `fit_direct`'s.
    """
    h, w = psf.shape
    y0, y1, x0, x1 = _candidate_bbox(region > 0, h, w)
    corr = np.real(np.fft.ifft2(np.fft.fft2(region) * np.conj(np.fft.fft2(psf))))
    crop = corr[y0:y1 + 1, x0:x1 + 1]
    best_y, best_x = divmod(int(np.argmax(crop)), x1 - x0 + 1)
    best_c = float(crop[best_y, best_x])
    psf_sq = float(np.sum(psf * psf))
    gain = best_c / psf_sq
    resid_sq = float(np.sum(region * region)) - 2 * gain * best_c + gain * gain * psf_sq
    return FittedScatterer(x=float(x0 + best_x), y=float(y0 + best_y), amplitude=gain,
                           residual=float(np.sqrt(max(resid_sq, 0.0))))


def fit_block_2d(region: np.ndarray, psf: SeparablePsf,
                 refine: bool = False) -> FittedScatterer:
    """`fit_scatterer` on a full-frame region, with the support block built
    by 2-D fancy indexing."""
    h, w = psf.shape
    flat = region.ravel()
    sup_idx = np.flatnonzero(flat > 0)
    sv = flat[sup_idx]
    sy, sx = np.divmod(sup_idx, w)
    ry0, ry1, rx0, rx1 = int(sy[0]), int(sy[-1]), int(sx.min()), int(sx.max())
    y0, y1 = max(ry0 - FIT_DILATE_PX, 0), min(ry1 + FIT_DILATE_PX, h - 1)
    x0, x1 = max(rx0 - FIT_DILATE_PX, 0), min(rx1 + FIT_DILATE_PX, w - 1)
    ny, nx = y1 - y0 + 1, x1 - x0 + 1
    block = np.zeros((ry1 - ry0 + 1, rx1 - rx0 + 1))
    block[sy - ry0, sx - rx0] = sv
    ay = psf.row_windows[h + y0 - ry1:h + y0 - ry0 + 1, :ny][::-1]
    ax = psf.col_windows[w + x0 - rx1:w + x0 - rx0 + 1, :nx][::-1]
    crop = ay.T @ (block @ ax)
    dy, dx = divmod(int(np.argmax(crop)), nx)
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
                           residual=float(np.sqrt(max(resid_sq, 0.0))))


def _positive_support(region: ScatterRegion | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending flat indices of the region's positive pixels, and their values."""
    if isinstance(region, ScatterRegion):
        idx, vals = region.indices, region.amplitudes
        keep = vals > 0
        return (idx, vals) if keep.all() else (idx[keep], vals[keep])
    flat = region.ravel()
    idx = np.flatnonzero(flat > 0)
    return idx, flat[idx]


def fit_per_region(region: ScatterRegion | np.ndarray, psf: SeparablePsf,
                   refine: bool = False) -> FittedScatterer:
    """`fit_scatterer` on one region, with its own positive mask, `divmod`,
    bounds and zeroed block."""
    h, w = psf.shape
    if not isinstance(region, ScatterRegion):
        region = np.asarray(region, dtype=np.float64)
    if region.shape != (h, w):
        raise DimMismatch(f"region {region.shape} vs psf {h}x{w}")
    sup_idx, sv = _positive_support(region)
    if sup_idx.size == 0:
        raise EmptyRegion("cannot fit a scatterer to an empty region")
    ry0, ry1 = int(sup_idx[0]) // w, int(sup_idx[-1]) // w
    sy, sx = np.divmod(sup_idx, w)
    rx0, rx1 = int(sx.min()), int(sx.max())
    y0, y1 = max(ry0 - FIT_DILATE_PX, 0), min(ry1 + FIT_DILATE_PX, h - 1)
    x0, x1 = max(rx0 - FIT_DILATE_PX, 0), min(rx1 + FIT_DILATE_PX, w - 1)
    ny, nx = y1 - y0 + 1, x1 - x0 + 1
    by, bx = ry1 - ry0 + 1, rx1 - rx0 + 1
    block = np.zeros((by, bx))
    block.ravel()[sup_idx - (w - bx) * sy - (ry0 * bx + rx0)] = sv
    ay = psf.row_windows[h + y0 - ry1:h + y0 - ry0 + 1, :ny][::-1]
    ax = psf.col_windows[w + x0 - rx1:w + x0 - rx0 + 1, :nx][::-1]
    crop = ay.T @ (block @ ax)
    dy, dx = divmod(int(crop.argmax()), nx)
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


def psf_2d(window: WindowRaster) -> np.ndarray:
    """|IFFT2 of the window|: the unit scatterer's amplitude image at (0, 0)."""
    return np.abs(np.fft.ifft2(window.values.astype(np.complex128)))


def _corr_at(region: np.ndarray, psf: np.ndarray, cy: int, cx: int) -> float:
    h, w = psf.shape
    return float(np.sum(region * np.roll(psf, (cy % h, cx % w), axis=(0, 1))))


def _parabolic_offset(lo: float, mid: float, hi: float) -> float:
    denom = lo - 2.0 * mid + hi
    if denom >= 0 or abs(denom) < 1e-300:
        return 0.0
    return float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))


def refine_offsets(region: np.ndarray, psf: np.ndarray,
                   cy: int, cx: int) -> tuple[float, float]:
    """Sub-pixel (dy, dx) about the integer fit (cy, cx), each axis from the
    correlation at cy - 1, cy, cy + 1 (resp. cx) with the rolled 2-D PSF."""
    mid = _corr_at(region, psf, cy, cx)
    dy = _parabolic_offset(_corr_at(region, psf, cy - 1, cx), mid,
                           _corr_at(region, psf, cy + 1, cx))
    dx = _parabolic_offset(_corr_at(region, psf, cy, cx - 1), mid,
                           _corr_at(region, psf, cy, cx + 1))
    return dy, dx


def signed_area_roll(poly: np.ndarray) -> float:
    """Shoelace signed area of an (n, 2) polygon about its first corner,
    positive for CCW, with each term halved before the sum."""
    rel = poly - poly[0]
    x, y = rel[:, 0], rel[:, 1]
    return float(np.sum(0.5 * (x * np.roll(y, -1) - np.roll(x, -1) * y)))


def degenerate_reason(corners) -> str | None:
    """Why `OrientedBox` rejects these corners, or None; checks in its order."""
    arr = np.asarray(corners, dtype=np.float64)
    if arr.shape != (4, 2):
        return f"expected 4 corner pairs, got shape {arr.shape}"
    if not np.all(np.isfinite(arr)):
        return "box corners contain NaN/Inf"
    with np.errstate(over="ignore", invalid="ignore"):
        area = signed_area_roll(arr)
    if not np.isfinite(area):
        return "box area is not finite"
    if abs(area) <= SLIVER_AREA:
        return "box has (near-)zero area"
    crosses = []
    for i in range(4):
        a, b, c = arr[i], arr[(i + 1) % 4], arr[(i + 2) % 4]
        u, v = b - a, c - b
        crosses.append(u[0] * v[1] - u[1] * v[0])
    crosses = np.array(crosses)
    if np.any(crosses > COLLINEAR_TOL) and np.any(crosses < -COLLINEAR_TOL):
        return "corners do not form a convex simple quadrilateral"
    return None


def _reach_data(coords: list[float], crosses: list[float], orient: float,
                absmax: float) -> tuple:
    """What the rejection rule (R1) reads of one box: the bounds, the
    largest |coordinate|, 4 kappa and delta, from the corner floats and the
    convexity cross products (`crosses[i]` at corner i + 1), with orient =
    +1 for CCW corners and -1 for CW ones."""
    x0, y0, x1, y1, x2, y2, x3, y3 = coords
    c0, c1, c2, c3 = crosses
    hypot = math.hypot
    l0, l1, l2, l3 = hypot(x1 - x0, y1 - y0), hypot(x2 - x1, y2 - y1), \
        hypot(x3 - x2, y3 - y2), hypot(x0 - x3, y0 - y3)
    kappa4 = delta = math.inf
    d0, d1, d2, d3 = l0 * l1, l1 * l2, l2 * l3, l3 * l0
    if d0 > 0.0 and d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
        sine = min(orient * c0 / d0, orient * c1 / d1, orient * c2 / d2, orient * c3 / d3)
        if sine >= _MIN_SINE:  # False for a flat, reflex or NaN corner
            kappa4 = 4.0 / sine
            delta = COLLINEAR_TOL / min(l0, l1, l2, l3)
    return (min(x0, x1, x2, x3), min(y0, y1, y2, y3), max(x0, x1, x2, x3),
            max(y0, y1, y2, y3), absmax, kappa4, delta)


def box_fields_scalar(corners) -> dict:
    """The fields `OrientedBox` stores for these corners, one box on Python
    floats; raises DegenerateBox, with its message, where it does."""
    arr = np.asarray(corners, dtype=np.float64)
    if arr.shape != (4, 2):
        raise DegenerateBox(f"expected 4 corner pairs, got shape {arr.shape}")
    coords = arr.ravel().tolist()
    if not all(map(math.isfinite, coords)):
        raise DegenerateBox("box corners contain NaN/Inf")
    pts = list(zip(coords[0::2], coords[1::2]))
    signed = signed_area_scalar(pts)  # Python floats: an overflow is inf or nan, not a warning
    if not math.isfinite(signed):
        raise DegenerateBox("box area is not finite")
    if abs(signed) <= SLIVER_AREA:
        raise DegenerateBox("box has (near-)zero area")
    # Simple + convex <=> all consecutive-edge cross products share a sign.
    crosses = []
    for i in range(4):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
        crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    if any(c > COLLINEAR_TOL for c in crosses) and \
            any(c < -COLLINEAR_TOL for c in crosses):
        raise DegenerateBox("corners do not form a convex simple quadrilateral")
    x0, y0, x1, y1, x2, y2, x3, y3 = coords  # summed as corners.mean(axis=0) sums
    return {
        "_area": abs(signed),
        "_centroid": ((x0 + x1 + x2 + x3) / 4, (y0 + y1 + y2 + y3) / 4),
        "_ccw": arr if signed > 0 else arr[::-1],
        "_ccw_pts": tuple(pts) if signed > 0 else tuple(pts[::-1]),
        "_reach": _reach_data(coords, crosses, 1.0 if signed > 0 else -1.0,
                              max(map(abs, coords))),
    }


def oriented_box_scalar(corners) -> OrientedBox:
    """An `OrientedBox` of a read-only copy of the corners, its fields from
    `box_fields_scalar`."""
    arr = np.array(corners, dtype=np.float64)
    arr.setflags(write=False)
    fields = box_fields_scalar(arr)
    del fields["_ccw"]
    return _unchecked(OrientedBox, corners=arr, **fields)


def _annotation_line(line: str, line_no: int) -> InstanceAnnotation:
    tokens = line.split()
    if len(tokens) < 10:
        raise MalformedLine(line_no, f"expected >= 10 tokens, got {len(tokens)}")
    try:
        nums = [float(t) for t in tokens[:8]]
    except ValueError as exc:
        raise MalformedLine(line_no, f"bad corner value: {exc}") from None
    class_name = tokens[8]
    try:
        difficulty = int(tokens[9])
    except ValueError:
        raise MalformedLine(line_no, f"bad difficulty {tokens[9]!r}") from None

    pts = None
    rest = tokens[10:]
    if rest:
        if rest[0] != "kp":
            raise MalformedLine(line_no, f"unknown trailing token {rest[0]!r}")
        try:
            coords = [float(t) for t in rest[1:]]
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad keypoint value: {exc}") from None
        if not coords or len(coords) % 2:
            raise BadKeypointCount(
                line_no, f"keypoint list must hold 2k numbers, got {len(coords)}")
        pts = tuple((coords[i], coords[i + 1]) for i in range(0, len(coords), 2))

    try:
        kps = None if pts is None else KeypointSet(points=pts)
        box = oriented_box_scalar(np.array(nums).reshape(4, 2))
        return InstanceAnnotation(box=box, class_name=class_name,
                                  difficulty=difficulty, keypoints=kps)
    except (ScatterKitError, ValueError) as exc:
        raise MalformedLine(line_no, str(exc)) from None


def _ascii_lines(path):
    """The retired line reader of the record files: text mode, decoded in
    8 KiB chunks, so a non-ASCII byte past the first chunk is met only after
    the lines before it are yielded."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line:
                    yield line_no, line
        except UnicodeDecodeError as exc:
            raise MalformedLine(0, f"not ascii text: {exc}") from None


def parse_annotation_per_line(path) -> list[InstanceAnnotation]:
    """`parse_annotation`, each line parsed and its box built on its own."""
    return [_annotation_line(line, line_no) for line_no, line in _ascii_lines(path)]


def parse_predictions_per_line(path) -> dict[str, list[Detection]]:
    """`parse_predictions`, each line parsed and its box built on its own."""
    out: dict[str, list[Detection]] = {}
    for line_no, line in _ascii_lines(path):
        tokens = line.split()
        if len(tokens) != 11:
            raise MalformedLine(line_no, f"expected 11 tokens, got {len(tokens)}")
        image_id = tokens[0]
        try:
            class_id = int(tokens[1])
            score = float(tokens[2])
            nums = [float(t) for t in tokens[3:]]
            det = Detection(box=oriented_box_scalar(np.array(nums).reshape(4, 2)),
                            score=score, class_id=class_id)
        except (ScatterKitError, ValueError) as exc:
            raise MalformedLine(line_no, str(exc)) from None
        out.setdefault(image_id, []).append(det)
    return out


def box_area(corners: np.ndarray) -> float:
    return abs(signed_area_roll(corners))


def box_ccw(corners: np.ndarray) -> np.ndarray:
    return corners if signed_area_roll(corners) > 0 else corners[::-1]


def clip_convex_np(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman on numpy rows: clip a convex CCW polygon by another,
    with each cut fraction clamped to [0, 1]."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        pts = output
        output = []
        d = [edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in pts]
        for j, p in enumerate(pts):
            q = pts[(j + 1) % len(pts)]
            dp, dq = d[j], d[(j + 1) % len(pts)]
            if dp >= -COLLINEAR_TOL:
                output.append(p)
                if dq < -COLLINEAR_TOL:
                    t = min(max(dp / (dp - dq), 0.0), 1.0)
                    output.append(p + t * (q - p))
            elif dq >= -COLLINEAR_TOL:
                t = min(max(dp / (dp - dq), 0.0), 1.0)
                output.append(p + t * (q - p))
    return np.array(output) if output else np.empty((0, 2))


def iou_from_parts(area_a: float, ccw_a: np.ndarray,
                   area_b: float, ccw_b: np.ndarray) -> float:
    """`rotated_iou_np` given each box's area and CCW corners."""
    inter_poly = clip_convex_np(ccw_a, ccw_b)
    inter = abs(signed_area_roll(inter_poly)) if len(inter_poly) >= 3 else 0.0
    if inter < SLIVER_AREA:
        inter = 0.0
    inter = min(inter, area_a, area_b)
    union = area_a + area_b - inter
    return float(inter / union)


def rotated_iou_np(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two boxes given as valid (4, 2) corner arrays."""
    return iou_from_parts(box_area(a), box_ccw(a), box_area(b), box_ccw(b))


def signed_area_scalar(pts) -> float:
    """Shoelace area of (x, y) float pairs, positive for CCW: the halved
    terms about the first point, summed in np.add.reduce's order."""
    x0, y0 = pts[0]
    rel = [(x - x0, y - y0) for x, y in pts]
    terms = [0.5 * (px * qy - qx * py)
             for (px, py), (qx, qy) in zip(rel, rel[1:] + rel[:1])]
    return _pairwise_sum(terms)


def cut_scalar(p: tuple[float, float], q: tuple[float, float],
               dp: float, dq: float) -> tuple[float, float]:
    """Where segment p-q crosses a clip edge's line, from the signed
    distances dp at p and dq at q, with the cut fraction clamped to [0, 1]."""
    t = dp / (dp - dq)
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def clip_convex_scalar(subject, clip) -> list[tuple[float, float]]:
    """Sutherland-Hodgman on (x, y) float pairs: clip a convex CCW polygon
    by a convex CCW polygon, one list of signed distances per edge."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        pts = output
        m = len(pts)
        output = []
        # signed distance from the clip edge; >= -tol counts as inside
        d = [ex * (py - ay) - ey * (px - ax) for px, py in pts]
        for j, p in enumerate(pts):
            dp, dq = d[j], d[(j + 1) % m]
            if dp >= -COLLINEAR_TOL:
                output.append(p)
                if dq < -COLLINEAR_TOL:
                    output.append(cut_scalar(p, pts[(j + 1) % m], dp, dq))
            elif dq >= -COLLINEAR_TOL:
                output.append(cut_scalar(p, pts[(j + 1) % m], dp, dq))
    return output


def clipped_iou_scalar(a: OrientedBox, b: OrientedBox) -> float:
    """IoU of a and b from the clip of a's CCW corners by b's CCW edges."""
    area_a, area_b = a.area, b.area
    inter_poly = clip_convex_scalar(a._ccw_pts, b._ccw_pts)
    inter = abs(signed_area_scalar(inter_poly)) if len(inter_poly) >= 3 else 0.0
    if inter < SLIVER_AREA:
        inter = 0.0
    inter = min(inter, area_a, area_b)
    union = area_a + area_b - inter
    return inter / union


def clip_reach_scalar(a: OrientedBox, b: OrientedBox) -> float:
    """The reach of rule (R1) on Python floats: 4 kappa_b (delta_b + rho)
    where 1 + M <= 2**500, else inf."""
    am = a._reach[4]
    _, _, _, _, bm, kappa4, delta = b._reach
    m = 1.0 + (am if am > bm else bm)
    if m > _MAX_COORD:
        return math.inf
    return kappa4 * (delta + ROUNDING_PER_PX * m)


def beyond_reach(a: OrientedBox, b: OrientedBox) -> bool:
    """Rule (R1) for one pair: True only where the clip of a by b provably
    returns no vertex."""
    ax0, ay0, ax1, ay1, _, _, _ = a._reach
    bx0, by0, bx1, by1, _, _, _ = b._reach
    gap = max(bx0 - ax1, ax0 - bx1, by0 - ay1, ay0 - by1)
    return gap > 0.0 and gap > clip_reach_scalar(a, b)  # overlapping bounds: no reach needed


def rotated_iou_scalar(a: OrientedBox, b: OrientedBox) -> float:
    """IoU of one pair: 0.0 where R1 rejects it, else the clip's."""
    return 0.0 if beyond_reach(a, b) else clipped_iou_scalar(a, b)


def average_precision_grouped_scalar(dets_by_image: dict[str, list[Detection]],
                                     gts_by_image: dict[str, list[OrientedBox]],
                                     iou_thr: float) -> float:
    """Single-class AP, scoring each pair by `rotated_iou_scalar` as it is reached."""
    n_gt = sum(len(g) for g in gts_by_image.values())
    flat = [(img, d) for img, ds in sorted(dets_by_image.items()) for d in ds]
    if n_gt == 0 or not flat:
        return 0.0

    def rank(entry: tuple[str, Detection]) -> tuple:
        img, det = entry
        cx, cy = det.box.centroid
        return -det.score, cy, cx, img

    flat.sort(key=rank)
    matched = {img: [False] * len(g) for img, g in gts_by_image.items()}
    tp_flags = []
    for img, det in flat:
        gts = gts_by_image.get(img, [])
        best_iou, best_g = 0.0, -1
        for g, gt in enumerate(gts):
            if matched[img][g]:
                continue
            iou = rotated_iou_scalar(det.box, gt)
            if iou > best_iou:
                best_iou, best_g = iou, g
        if best_g >= 0 and best_iou > iou_thr:
            matched[img][best_g] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return envelope_ap_np(tp_flags, n_gt)


def envelope_ap_np(tp_flags: list[bool], n_gt: int) -> float:
    """Area under the monotone precision envelope, integrated over numpy
    scalars."""
    tp = np.cumsum(tp_flags).astype(np.float64)
    fp = np.cumsum([not t for t in tp_flags]).astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / n_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def hit_rates_loop(best: np.ndarray, thresholds) -> list[float]:
    """Share of `best` strictly above each threshold, one `np.mean` per
    threshold; 0.0 each where `best` is empty."""
    return [float(np.mean(best > t)) if best.size else 0.0 for t in thresholds]


def max_ious_scalar(proposals: list[OrientedBox], gts: list[OrientedBox]) -> np.ndarray:
    out = np.zeros(len(proposals))
    for i, p in enumerate(proposals):
        for g in gts:
            iou = rotated_iou_scalar(p, g)
            if iou > out[i]:
                out[i] = iou
    return out


def kmeans_pp_init_numpy(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on numpy arrays, each weighted draw by the cdf and
    search `Generator.choice` runs."""
    n = len(pts)
    centers = np.empty((k, 2))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            idx = int(rng.integers(n))
        elif not math.isfinite(total):  # Generator.choice rejected these weights too
            raise ValueError(f"squared distances must have a finite sum, got {total}")
        else:
            # Generator.choice(n, p=d2 / total)'s own draw: the same cdf, one
            # double from the stream, the same search
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[i] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1))
    return centers


def cluster_keypoints_numpy(positions: list[tuple[float, float]], k: int,
                            rng_seed: int = 0) -> KeypointSet:
    """`cluster_keypoints` on numpy arrays: every Lloyd update is one
    vectorized pass over the (points, centres) distance table."""
    if not positions:
        raise EmptyInput("no positions to cluster")
    pts = [tuple(map(float, p)) for p in positions]
    if len(pts) < k:
        pts = [pts[i % len(pts)] for i in range(k)]
    arr = np.array(pts, dtype=np.float64)

    rng = np.random.Generator(np.random.PCG64(rng_seed))
    centers = kmeans_pp_init_numpy(arr, k, rng)
    rows = np.arange(len(arr))
    xs, ys = arr[:, :1].copy(), arr[:, 1:].copy()
    for _ in range(KMEANS_MAX_ITER):
        # dx² + dy² in the order a sum over the last axis of
        # (arr[:, None, :] - centers) ** 2 adds them, so d2 keeps its bits
        dx, dy = xs - centers[:, 0], ys - centers[:, 1]
        d2 = dx * dx + dy * dy
        assign = np.argmin(d2, axis=1)
        # bincount sums each cluster's members in index order, as a mean over
        # them does, so the centroids keep their bits
        counts = np.bincount(assign, minlength=k)
        new_centers = np.stack([np.bincount(assign, weights=arr[:, c], minlength=k)
                                for c in (0, 1)], axis=1)
        empty = counts == 0
        new_centers[~empty] /= counts[~empty, None]
        if empty.any():
            # revive every empty cluster at the worst-fit point, unless that
            # point already sits on a centre: then every point does, and
            # reviving there only swaps equal centres between slots
            fit = d2[rows, assign]
            worst = int(np.argmax(fit))
            new_centers[empty] = arr[worst] if fit[worst] > 0.0 else centers[empty]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break

    order = np.lexsort((centers[:, 0], centers[:, 1]))  # by (y, x)
    pts_sorted = tuple((float(x), float(y)) for x, y in centers[order])
    return KeypointSet(points=pts_sorted)


def kmeans_pp_init_choice(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with each weighted draw by `Generator.choice`."""
    n = len(pts)
    centers = np.empty((k, 2))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1))
    return centers


def cluster_keypoints_loop(positions: list[tuple[float, float]], k: int,
                           rng_seed: int = 0) -> KeypointSet:
    """`cluster_keypoints` with each k-means update as a Python loop over
    the clusters, taking every centroid as the mean of its members."""
    if not positions:
        raise EmptyInput("no positions to cluster")
    pts = [tuple(map(float, p)) for p in positions]
    if len(pts) < k:
        pts = [pts[i % len(pts)] for i in range(k)]
    arr = np.array(pts, dtype=np.float64)

    rng = np.random.Generator(np.random.PCG64(rng_seed))
    centers = kmeans_pp_init_choice(arr, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((arr[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = arr[assign == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
            else:
                # revive an empty cluster at the worst-fit point, unless every
                # point already sits on a centre: then keep its old centre
                worst = int(np.argmax(d2[np.arange(len(arr)), assign]))
                if d2[worst, assign[worst]] > 0.0:
                    new_centers[c] = arr[worst]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break

    order = np.lexsort((centers[:, 0], centers[:, 1]))  # by (y, x)
    pts_sorted = tuple((float(x), float(y)) for x, y in centers[order])
    return KeypointSet(points=pts_sorted)


def gt_scatter_map_max(kps: KeypointSet, height: int, width: int,
                       sigma: float = 1.0) -> ScatterMap:
    """Pixelwise max of unit Gaussians centered on the keypoints, one
    full-frame `exp` per keypoint."""
    inv = _exponent_scale(sigma)
    ys = np.arange(height, dtype=np.float64).reshape(-1, 1)
    xs = np.arange(width, dtype=np.float64).reshape(1, -1)
    out = np.zeros((height, width))
    for x_k, y_k in kps.points:
        if not (0 <= x_k < width and 0 <= y_k < height):
            raise OutOfBounds(f"keypoint ({x_k}, {y_k}) outside {width}x{height} map")
        d2 = (xs - x_k) ** 2 + (ys - y_k) ** 2
        with np.errstate(over="ignore"):  # a tiny sigma: d2 * inv is inf, exp(-inf) = 0
            np.maximum(out, np.exp(-d2 * inv), out=out)
    return ScatterMap(out)
