"""Keypoint consolidation and the difference-of-Gaussians baseline.

Fitted scatterer positions (`annotio.fit_regions`) are grouped into a
fixed-size keypoint set with a small hand-rolled k-means (k-means++ init,
deterministic under a fixed seed). The DoG path provides the comparison
baseline: normalize, blur twice, threshold the band-pass response, keep the
strongest candidates, and cluster those to the same size.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NoCandidates
from .raster import AmplitudeRaster, _require_finite

DEFAULT_K = 9
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-4  # max absolute centroid shift, px


def instance_seed(master_seed: int, image_id: str, instance_idx: int) -> int:
    """Stable per-instance RNG seed, independent of processing order."""
    digest = hashlib.sha256(
        f"{master_seed}:{image_id}:{instance_idx}".encode()).hexdigest()
    return int(digest, 16)


@dataclass(frozen=True)
class KeypointSet:
    """Exactly k (x, y) points, sorted row-major for determinism."""

    points: tuple[tuple[float, float], ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if len(self.points) != self.k:
            raise ValueError(f"expected {self.k} points, got {len(self.points)}")
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("keypoints must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=np.float64)

    def translated(self, dx: float, dy: float) -> "KeypointSet":
        return KeypointSet(
            points=tuple((x + dx, y + dy) for x, y in self.points), k=self.k)


@dataclass(frozen=True)
class DogParams:
    """Difference-of-Gaussians baseline parameters."""

    sigma1: float = 1.0
    sigma2: float = 1.6
    threshold: float = 5.0
    top_n: int = 30

    def __post_init__(self):
        _require_finite(sigma1=self.sigma1, sigma2=self.sigma2, threshold=self.threshold)
        if not 0 < self.sigma1 < self.sigma2:
            raise ValueError("need sigma2 > sigma1 > 0")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.top_n < 1:
            raise ValueError(f"top_n must be positive, got {self.top_n}")


def _pairwise_sum(vals: list[float]) -> float:
    """`np.add.reduce` of `vals` as a float64 array, bit for bit: numpy adds
    up to 7 values in order from 0.0, up to 128 in 8 interleaved partial
    sums, and splits a longer run in two at a multiple of 8 below its half."""
    n = len(vals)
    if n < 8:
        total = 0.0
        for v in vals:
            total += v
        return total
    if n <= 128:
        r = vals[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += vals[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in vals[end:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(vals[:half]) + _pairwise_sum(vals[half:])


def _kmeans_pp_init(pts: list[tuple[float, float]], k: int,
                    rng: np.random.Generator) -> list[tuple[float, float]]:
    """k-means++ seeding: each centre is drawn with probability proportional
    to the squared distance to the nearest centre drawn before it."""
    n = len(pts)
    cx, cy = pts[int(rng.integers(n))]
    centers = [(cx, cy)]
    d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in pts]
    for _ in range(1, k):
        total = _pairwise_sum(d2)
        if total <= 0:  # all remaining points coincide with a center
            idx = int(rng.integers(n))
        elif not math.isfinite(total):  # Generator.choice rejected these weights too
            raise ValueError(f"squared distances must have a finite sum, got {total}")
        else:
            # Generator.choice(n, p=d2 / total)'s own draw: the same cdf,
            # divided by its last entry, one double from the stream, the
            # same search
            cdf = list(itertools.accumulate([d / total for d in d2]))
            last = cdf[-1]
            idx = bisect.bisect_right(cdf, rng.random(), key=lambda c: c / last)
        cx, cy = pts[idx]
        centers.append((cx, cy))
        for i, (x, y) in enumerate(pts):
            dx, dy = x - cx, y - cy
            near = dx * dx + dy * dy
            if near < d2[i]:
                d2[i] = near
    return centers


def _lloyd_step(pts: list[tuple[float, float]],
                centers: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """One Lloyd update: each point joins its nearest centre (the first of
    equals), and each centre moves to the mean of its members, summed in
    index order."""
    k = len(centers)
    sum_x, sum_y, counts = [0.0] * k, [0.0] * k, [0] * k
    worst = worst_d2 = None
    for i, (x, y) in enumerate(pts):
        nearest = nearest_d2 = None
        for c, (cx, cy) in enumerate(centers):
            dx, dy = x - cx, y - cy
            d2 = dx * dx + dy * dy
            if nearest is None or d2 < nearest_d2:
                nearest, nearest_d2 = c, d2
        sum_x[nearest] += x
        sum_y[nearest] += y
        counts[nearest] += 1
        if worst is None or nearest_d2 > worst_d2:
            worst, worst_d2 = i, nearest_d2
    # revive every empty cluster at the worst-fit point, unless that point
    # already sits on a centre: then every point does, and reviving there
    # only swaps equal centres between slots
    revived = pts[worst] if worst_d2 > 0.0 else None
    return [(sum_x[c] / counts[c], sum_y[c] / counts[c]) if counts[c]
            else (revived or centers[c]) for c in range(k)]


def cluster_keypoints(positions: list[tuple[float, float]], k: int = DEFAULT_K,
                      rng_seed: int = 0) -> KeypointSet:
    """k-means the positions down (or replicate them up) to exactly k points.

    The centres are seeded by k-means++ from `PCG64(rng_seed)` and refined by
    Lloyd's updates until every coordinate moves by less than KMEANS_TOL px,
    or for KMEANS_MAX_ITER updates. It all runs on Python floats, in numpy's
    order of operations (squared distances as dx*dx + dy*dy, weight totals
    in numpy's pairwise summation order), so for finite positions the
    centres are those of the same steps on numpy arrays, bit for bit, at a
    fraction of their per-call overhead on a few dozen points.
    """
    if not positions:
        raise EmptyInput("no positions to cluster")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    pts = [tuple(map(float, p)) for p in positions]
    if len(pts) < k:
        pts = [pts[i % len(pts)] for i in range(k)]

    rng = np.random.Generator(np.random.PCG64(rng_seed))
    centers = _kmeans_pp_init(pts, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        new_centers = _lloyd_step(pts, centers)
        # the largest shift is below KMEANS_TOL, and none is NaN
        converged = all(abs(nx - cx) < KMEANS_TOL and abs(ny - cy) < KMEANS_TOL
                        for (nx, ny), (cx, cy) in zip(new_centers, centers))
        centers = new_centers
        if converged:
            break

    centers.sort(key=lambda c: (c[1], c[0]))  # by (y, x), stable
    return KeypointSet(points=tuple(centers), k=k)


def _gauss3x3(sigma: float) -> np.ndarray:
    ij = np.arange(-1, 2, dtype=np.float64)
    g = np.exp(-(ij[:, None] ** 2 + ij[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _blur3x3(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += kernel[dy, dx] * padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]
    return out


def dog_response(r: AmplitudeRaster, params: DogParams = DogParams()) -> np.ndarray:
    """Band-pass response of the min-max-normalized amplitude."""
    vals = r.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        raise NoCandidates("constant raster has no band-pass response")
    norm = (vals - lo) * (255.0 / (hi - lo))
    return _blur3x3(norm, _gauss3x3(params.sigma2)) - _blur3x3(norm, _gauss3x3(params.sigma1))


def dog_candidates(r: AmplitudeRaster,
                   params: DogParams = DogParams()) -> list[tuple[float, float]]:
    """Top-N pixels by |DoG| above threshold, strongest first (row-major ties)."""
    d = dog_response(r, params)
    mag = np.abs(d).ravel()
    idx = np.flatnonzero(mag > params.threshold)
    if idx.size == 0:
        raise NoCandidates(f"no pixel exceeds |DoG| > {params.threshold}")
    ranked = idx[np.argsort(-mag[idx], kind="stable")][:params.top_n]
    w = r.width
    return [(float(q % w), float(q // w)) for q in ranked]


def dog_keypoints(r: AmplitudeRaster, params: DogParams = DogParams(),
                  k: int = DEFAULT_K, rng_seed: int = 0) -> KeypointSet:
    """DoG baseline: threshold the band-pass response, then cluster to k."""
    if params.top_n < k:
        raise ValueError(f"top_n ({params.top_n}) must be >= k ({k})")
    return cluster_keypoints(dog_candidates(r, params), k=k, rng_seed=rng_seed)


def to_global(kps: KeypointSet, crop_origin: tuple[float, float]) -> KeypointSet:
    """Chip-local keypoints -> source-image coordinates."""
    ox, oy = crop_origin
    return kps.translated(ox, oy)

