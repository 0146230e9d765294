"""Gaussian scatter maps, BCE loss, pooling pyramid, feature enhancement."""

import math
import time

import numpy as np
import pytest

from scatterkit.errors import BadDims, DimMismatch, OutOfBounds
from scatterkit.keypoints import KeypointSet
from scatterkit.supervision import (FeatureGrid, ScatterMap, SupervisionParams,
                                    _pyramid_fits, bce_loss, downsample_pyramid,
                                    enhance_features, gt_scatter_map)


def kps_of(*points):
    return KeypointSet(points=tuple(points))


def test_map_is_one_exactly_at_on_grid_keypoint():
    m = gt_scatter_map(kps_of((4.0, 6.0)), 12, 12, sigma=1.0)
    assert m.values[6, 4] == 1.0
    assert m.values.max() == 1.0


@pytest.mark.parametrize("sigma", [1e-200, 1e-160])
def test_sigma_whose_gaussian_scale_overflows_is_rejected(sigma):
    # 2 sigma^2 is 0 at 1e-200 and subnormal at 1e-160: 1 / (2 sigma^2) overflows
    with pytest.raises(ValueError, match="overflows"):
        SupervisionParams(sigma=sigma)
    with pytest.raises(ValueError, match="overflows"):
        gt_scatter_map(kps_of((4.0, 6.0)), 12, 12, sigma=sigma)


def test_smallest_sigmas_give_a_point_map():
    # at 1e-154, d2 / (2 sigma^2) overflows to inf off the keypoint: no warning
    for sigma in (1e-154, 1e-150, 1e-100):
        assert SupervisionParams(sigma=sigma).sigma == sigma
        m = gt_scatter_map(kps_of((4.0, 6.0), (7.5, 2.0)), 12, 12, sigma=sigma)
        assert m.values[6, 4] == 1.0 and np.count_nonzero(m.values) == 1


def test_map_known_value_one_pixel_diagonal():
    m = gt_scatter_map(kps_of((4.0, 6.0)), 12, 12, sigma=1.0)
    assert m.values[7, 5] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert m.values[6, 5] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_map_matches_naive_double_loop():
    rng = np.random.Generator(np.random.PCG64(60))
    pts = [tuple(map(float, rng.uniform(0, 10, 2))) for _ in range(4)]
    sigma = 1.7
    m = gt_scatter_map(kps_of(*pts), 10, 11, sigma=sigma)
    for y in range(10):
        for x in range(11):
            expect = max(
                math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2 * sigma * sigma))
                for px, py in pts)
            assert m.values[y, x] == pytest.approx(expect, abs=1e-12)


def test_map_duplicate_keypoints_are_idempotent():
    a = gt_scatter_map(kps_of((3.0, 3.0)), 8, 8)
    b = gt_scatter_map(kps_of((3.0, 3.0), (3.0, 3.0), (3.0, 3.0)), 8, 8)
    np.testing.assert_array_equal(a.values, b.values)


def test_map_max_merge_dominates_each_part():
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(100):
        pts = [tuple(map(float, rng.uniform(0, 16, 2))) for _ in range(5)]
        cut = int(rng.integers(1, 5))
        merged = gt_scatter_map(kps_of(*pts), 16, 16).values
        left = gt_scatter_map(kps_of(*pts[:cut]), 16, 16).values
        right = gt_scatter_map(kps_of(*pts[cut:]), 16, 16).values
        assert np.all(merged >= left - 1e-15)
        assert np.all(merged >= right - 1e-15)
        np.testing.assert_allclose(merged, np.maximum(left, right), atol=1e-15)


def test_map_wider_sigma_never_decreases_offpeak_response():
    rng = np.random.Generator(np.random.PCG64(62))
    pts = [(5.0, 5.0), (11.0, 12.0)]
    narrow = gt_scatter_map(kps_of(*pts), 16, 16, sigma=0.8).values
    wide = gt_scatter_map(kps_of(*pts), 16, 16, sigma=2.0).values
    for _ in range(100):
        y, x = (int(v) for v in rng.integers(0, 16, 2))
        assert wide[y, x] >= narrow[y, x] - 1e-15


def test_map_rejects_bad_inputs():
    with pytest.raises(OutOfBounds):
        gt_scatter_map(kps_of((8.0, 2.0)), 8, 8)
    with pytest.raises(OutOfBounds):
        gt_scatter_map(kps_of((2.0, -0.5)), 8, 8)
    with pytest.raises(ValueError):
        gt_scatter_map(kps_of((1.0, 1.0)), 8, 8, sigma=0.0)


def test_bce_pinned_value_at_half():
    pred = ScatterMap(np.full((4, 4), 0.5))
    gt = ScatterMap(np.ones((4, 4)))
    assert bce_loss(pred, gt) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_is_tiny():
    gt = ScatterMap((np.arange(16).reshape(4, 4) % 2).astype(float))
    assert bce_loss(gt, gt) <= 2e-7  # floor set by the clamp


def test_bce_matches_double_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(63))
    p = rng.random((8, 8))
    g = rng.random((8, 8))
    got = bce_loss(ScatterMap(p), ScatterMap(g))
    total = 0.0
    for y in range(8):
        for x in range(8):
            pc = min(max(p[y, x], 1e-7), 1 - 1e-7)
            total += g[y, x] * math.log(pc) + (1 - g[y, x]) * math.log(1 - pc)
    assert got == pytest.approx(-total / 64.0, abs=1e-12)


def test_bce_minimized_at_matching_prediction():
    g = ScatterMap(np.full((4, 4), 0.3))
    losses = {q: bce_loss(ScatterMap(np.full((4, 4), q)), g)
              for q in np.linspace(0.05, 0.95, 19)}
    best = min(losses, key=losses.get)
    assert best == pytest.approx(0.3, abs=1e-9)


def test_bce_dim_mismatch():
    with pytest.raises(DimMismatch):
        bce_loss(ScatterMap(np.zeros((4, 4))), ScatterMap(np.zeros((4, 6))))


def test_pyramid_single_level_is_identity():
    m = gt_scatter_map(kps_of((3.0, 3.0)), 8, 8)
    levels = downsample_pyramid(m, 1)
    assert len(levels) == 1
    np.testing.assert_array_equal(levels[0].values, m.values)


def test_pyramid_max_pool_matches_nested_loops():
    rng = np.random.Generator(np.random.PCG64(64))
    vals = rng.random((16, 16))
    levels = downsample_pyramid(ScatterMap(vals), 3, pool="max")
    assert [lvl.values.shape for lvl in levels] == [(16, 16), (8, 8), (4, 4)]
    cur = vals
    for lvl in levels[1:]:
        h, w = cur.shape
        expect = np.zeros((h // 2, w // 2))
        for y in range(h // 2):
            for x in range(w // 2):
                expect[y, x] = max(cur[2 * y, 2 * x], cur[2 * y, 2 * x + 1],
                                   cur[2 * y + 1, 2 * x], cur[2 * y + 1, 2 * x + 1])
        np.testing.assert_array_equal(lvl.values, expect)
        cur = expect


def test_pyramid_avg_pool_matches_nested_loops():
    rng = np.random.Generator(np.random.PCG64(65))
    vals = rng.random((8, 8))
    levels = downsample_pyramid(ScatterMap(vals), 2, pool="avg")
    expect = np.zeros((4, 4))
    for y in range(4):
        for x in range(4):
            expect[y, x] = vals[2 * y:2 * y + 2, 2 * x:2 * x + 2].mean()
    np.testing.assert_allclose(levels[1].values, expect, atol=1e-15)


def test_pyramid_max_pool_preserves_unit_peak():
    m = gt_scatter_map(kps_of((5.0, 6.0)), 16, 16)
    for lvl in downsample_pyramid(m, 3, pool="max"):
        assert lvl.values.max() == 1.0


def test_pyramid_rejects_indivisible_dims():
    with pytest.raises(BadDims):
        downsample_pyramid(ScatterMap(np.zeros((6, 8))), 3)
    with pytest.raises(ValueError):
        downsample_pyramid(ScatterMap(np.zeros((8, 8))), 0)


def test_pyramid_divisibility_equals_the_power_of_two_rule():
    for h in range(1, 70):
        for w in (1, 2, 12, 48, 64, 96, 128):
            for levels in range(1, 10):
                factor = 2 ** (levels - 1)
                assert _pyramid_fits(h, w, levels) == (h % factor == 0 and w % factor == 0)


def test_pyramid_of_huge_levels_is_rejected_without_the_power_of_two():
    # 2 ** (10**12 - 1) alone would take ~125 GB
    m = ScatterMap(np.zeros((8, 8)))
    t0 = time.perf_counter()
    with pytest.raises(BadDims, match=r"8x8 map not divisible by 2\^999999999999 for "
                                      r"1000000000000 levels"):
        downsample_pyramid(m, 10**12)
    assert time.perf_counter() - t0 < 1.0


def test_enhance_zero_map_is_identity():
    rng = np.random.Generator(np.random.PCG64(66))
    f = FeatureGrid(rng.normal(size=(3, 6, 6)))
    out = enhance_features(f, ScatterMap(np.zeros((6, 6))))
    np.testing.assert_array_equal(out.values, f.values)


def test_enhance_unit_map_doubles_features():
    f = FeatureGrid(np.ones((2, 4, 4)))
    out = enhance_features(f, ScatterMap(np.ones((4, 4))))
    np.testing.assert_array_equal(out.values, np.full((2, 4, 4), 2.0))


def test_enhance_matches_elementwise_oracle_and_is_linear():
    rng = np.random.Generator(np.random.PCG64(67))
    feats = rng.normal(size=(3, 5, 7))
    amap = rng.random((5, 7))
    out = enhance_features(FeatureGrid(feats), ScatterMap(amap)).values
    for c in range(3):
        np.testing.assert_allclose(out[c], feats[c] * (1 + amap), atol=1e-15)
    doubled = enhance_features(FeatureGrid(2 * feats), ScatterMap(amap)).values
    np.testing.assert_allclose(doubled, 2 * out, atol=1e-12)


def test_enhance_dim_mismatch():
    with pytest.raises(DimMismatch):
        enhance_features(FeatureGrid(np.ones((1, 4, 4))), ScatterMap(np.ones((4, 5))))


def test_scatter_map_and_feature_grid_validation():
    with pytest.raises(ValueError):
        ScatterMap(np.full((4, 4), 1.5))
    with pytest.raises(ValueError):
        ScatterMap(np.full((4, 4), -0.1))
    with pytest.raises(ValueError):
        ScatterMap(np.zeros((4,)))
    with pytest.raises(ValueError):
        FeatureGrid(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        FeatureGrid(np.full((1, 2, 2), np.inf))


def test_supervision_params_validation():
    p = SupervisionParams()
    assert (p.sigma, p.levels) == (1.0, 4)
    with pytest.raises(ValueError):
        SupervisionParams(sigma=0.0)
    with pytest.raises(ValueError):
        SupervisionParams(levels=0)


def test_empty_keypoints_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        gt_scatter_map(KeypointSet(points=()), 8, 8)
