"""Keypoint consolidation and the difference-of-Gaussians baseline.

Fitted scatterer positions (`annotio.fit_regions`) are grouped into a
fixed-size keypoint set with a small hand-rolled k-means (k-means++ init,
deterministic under a fixed seed). The DoG path provides the comparison
baseline: normalize, blur twice, threshold the band-pass response, keep the
strongest candidates, and cluster those to the same size.
"""

from __future__ import annotations

import hashlib
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
        if not np.isfinite(self.points).all():
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


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def cluster_keypoints(positions: list[tuple[float, float]], k: int = DEFAULT_K,
                      rng_seed: int = 0) -> KeypointSet:
    """k-means the positions down (or replicate them up) to exactly k points."""
    if not positions:
        raise EmptyInput("no positions to cluster")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    pts = [tuple(map(float, p)) for p in positions]
    if len(pts) < k:
        pts = [pts[i % len(pts)] for i in range(k)]
    arr = np.array(pts, dtype=np.float64)

    rng = np.random.Generator(np.random.PCG64(rng_seed))
    centers = _kmeans_pp_init(arr, k, rng)
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
            # revive every empty cluster at the worst-fit point
            new_centers[empty] = arr[int(np.argmax(d2[rows, assign]))]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break

    order = np.lexsort((centers[:, 0], centers[:, 1]))  # by (y, x)
    pts_sorted = tuple((float(x), float(y)) for x, y in centers[order])
    return KeypointSet(points=pts_sorted, k=k)


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

