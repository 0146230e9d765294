"""Scattering-map supervision artifacts.

A keypoint set induces a ground-truth map whose value at each pixel is the
maximum of unit-height Gaussians centered on the keypoints. The map is
compared against predictions with a clamped BCE loss, shrunk level-by-level
with 2x2 pooling, and used to modulate feature activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, DimMismatch, OutOfBounds
from .keypoints import KeypointSet
from .raster import _freeze, _require_finite

BCE_CLAMP = 1e-7


def _exponent_scale(sigma: float) -> float:
    """1 / (2 sigma^2), the scale of a unit Gaussian's exponent.

    Raises ValueError unless sigma is positive and the scale finite: below
    sigma ~ 5e-155 px, 2 sigma^2 is subnormal or 0 and the scale overflows.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    two_var = 2.0 * sigma * sigma
    if two_var == 0.0 or not math.isfinite(1.0 / two_var):
        raise ValueError(f"sigma {sigma} is too small: 1 / (2 sigma^2) overflows")
    return 1.0 / two_var


@dataclass(frozen=True)
class SupervisionParams:
    """Gaussian radius and pyramid depth."""

    sigma: float = 1.0
    levels: int = 4

    def __post_init__(self):
        _require_finite(sigma=self.sigma)
        _exponent_scale(self.sigma)
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")


@dataclass(frozen=True)
class ScatterMap:
    """Dense per-pixel response in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"scatter map must be 2-D non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scatter map contains NaN/Inf")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("scatter map values must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(arr, self.values))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureGrid:
    """Channel-first activation stack (C, H, W)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError(f"features must be (C, H, W) non-empty, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("features contain NaN/Inf")
        object.__setattr__(self, "values", _freeze(arr, self.values))

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def gt_scatter_map(kps: KeypointSet, height: int, width: int,
                   sigma: float = 1.0) -> ScatterMap:
    """Pixelwise max of unit Gaussians centered on the keypoints."""
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


def bce_loss(pred: ScatterMap, gt: ScatterMap) -> float:
    """Mean binary cross-entropy; predictions clamped away from {0, 1}."""
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DimMismatch(
            f"pred {pred.height}x{pred.width} vs gt {gt.height}x{gt.width}")
    p = np.clip(pred.values, BCE_CLAMP, 1.0 - BCE_CLAMP)
    g = gt.values
    terms = g * np.log(p) + (1.0 - g) * np.log1p(-p)
    return float(-np.mean(terms))


def _pool2x2(arr: np.ndarray, op: str) -> np.ndarray:
    h, w = arr.shape
    blocks = arr.reshape(h // 2, 2, w // 2, 2)
    if op == "max":
        return blocks.max(axis=(1, 3))
    if op == "avg":
        return blocks.mean(axis=(1, 3))
    raise ValueError(f"unknown pool op {op!r}")


def _pyramid_fits(height: int, width: int, levels: int) -> bool:
    """Whether 2^(levels - 1) divides both dims, without building the power:
    h & -h is the largest power of 2 dividing h."""
    return min(height & -height, width & -width).bit_length() >= levels


def downsample_pyramid(m: ScatterMap, levels: int, pool: str = "max") -> list[ScatterMap]:
    """Level 0 is the input; each further level is a 2x2 pool of the previous."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not _pyramid_fits(m.height, m.width, levels):
        raise BadDims(
            f"{m.height}x{m.width} map not divisible by 2^{levels - 1} for {levels} levels")
    out = [m]
    cur = m.values
    for _ in range(levels - 1):
        cur = _pool2x2(cur, pool)
        out.append(ScatterMap(cur))
    return out


def enhance_features(f: FeatureGrid, a: ScatterMap) -> FeatureGrid:
    """Residual attention: out[c] = f[c] * (1 + a)."""
    if (f.height, f.width) != (a.height, a.width):
        raise DimMismatch(
            f"features {f.height}x{f.width} vs map {a.height}x{a.width}")
    return FeatureGrid(f.values * (1.0 + a.values[None, :, :]))
