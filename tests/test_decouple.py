"""Peak-block masking, log-surface region growth, and the extraction loop."""

import numpy as np
import pytest
from scipy import ndimage

from scatterkit.ascmodel import FrequencyGrid, Scatterer, synth_image, synth_target
from scatterkit.decouple import (DecoupleParams, ScatterRegion, decouple,
                                 decouple_steps, mask_block_bfs, region_grow)
from scatterkit.errors import AllZeroRaster, EmptyRegion
from scatterkit.raster import AmplitudeRaster
from scatterkit.spectral import taylor_window_2d

from oracles import LabelMap, grow_labels

N4_STRUCTURE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def test_mask_block_impulse_is_single_pixel():
    vals = np.zeros((8, 8))
    vals[3, 4] = 2.0
    mask = mask_block_bfs(AmplitudeRaster(vals), tau_db=-3.0)
    expect = np.zeros((8, 8), dtype=bool)
    expect[3, 4] = True
    np.testing.assert_array_equal(mask, expect)


def test_mask_block_excludes_disconnected_blob():
    vals = np.zeros((8, 8))
    vals[1, 1] = 1.0
    vals[1, 2] = 0.9
    vals[6, 6] = 0.95  # bright but not connected to the peak
    mask = mask_block_bfs(AmplitudeRaster(vals), tau_db=-3.0)
    assert mask[1, 1] and mask[1, 2]
    assert not mask[6, 6]


def test_mask_block_threshold_is_strict():
    thr = 10.0 ** (-3.0 / 10.0)
    vals = np.zeros((3, 3))
    vals[1, 1] = 1.0
    vals[1, 2] = thr  # exactly at the cut: excluded
    vals[1, 0] = np.nextafter(thr, 1.0)  # just above: included
    mask = mask_block_bfs(AmplitudeRaster(vals), tau_db=-3.0)
    assert mask[1, 0] and mask[1, 1]
    assert not mask[1, 2]


def test_mask_block_matches_flood_fill_oracle():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(20):
        vals = rng.random((16, 16))
        r = AmplitudeRaster(vals)
        mask = mask_block_bfs(r, tau_db=-3.0)
        thr = vals.max() * 10.0 ** (-0.3)
        comp, _ = ndimage.label(vals > thr, structure=N4_STRUCTURE)
        sy, sx = np.unravel_index(np.argmax(vals), vals.shape)
        np.testing.assert_array_equal(mask, comp == comp[sy, sx])


def test_mask_block_rejects_all_zero():
    with pytest.raises(AllZeroRaster):
        mask_block_bfs(AmplitudeRaster(np.zeros((4, 4))), tau_db=-3.0)


def test_region_grow_isolated_peak_stays_put():
    vals = np.zeros((8, 8))
    vals[2, 2] = 1.0  # everything else sits at eps, far below the floor
    r = AmplitudeRaster(vals)
    seed = mask_block_bfs(r, -3.0)
    support = region_grow(r, seed, DecoupleParams())
    expect = np.zeros((8, 8), dtype=bool)
    expect[2, 2] = True
    np.testing.assert_array_equal(support, expect)


def test_region_grow_monotone_hill_is_one_label():
    yy, xx = np.mgrid[0:32, 0:32]
    vals = np.exp(-((yy - 16.0) ** 2 + (xx - 16.0) ** 2) / (2 * 3.0 ** 2))
    r = AmplitudeRaster(vals)
    params = DecoupleParams()
    seed = mask_block_bfs(r, params.tau_db)
    support = region_grow(r, seed, params)
    db = 10 * np.log10((vals + params.eps) / vals.max())
    np.testing.assert_array_equal(support, db > params.grow_floor_db)


def test_region_grow_second_hill_founds_new_label():
    yy, xx = np.mgrid[0:48, 0:48]
    hill1 = np.exp(-((yy - 14.0) ** 2 + (xx - 14.0) ** 2) / (2 * 1.5 ** 2))
    hill2 = 0.7 * np.exp(-((yy - 34.0) ** 2 + (xx - 34.0) ** 2) / (2 * 1.5 ** 2))
    r = AmplitudeRaster(hill1 + hill2)
    params = DecoupleParams()
    seed = mask_block_bfs(r, params.tau_db)
    lm = grow_labels(r, seed, params)
    assert lm.labels[14, 14] == 1
    assert lm.labels[34, 34] == 2
    assert lm.labels.max() == 2
    assert not seed[34, 34]
    np.testing.assert_array_equal(region_grow(r, seed, params), lm.labels == 1)


def test_region_grow_joins_minimum_neighbor_label():
    vals = np.zeros((3, 5))
    vals[1, 1] = 1.0
    vals[1, 3] = 0.9
    vals[1, 2] = 0.55  # adjacent to both hills once they are labeled
    params = DecoupleParams(tau_db=-1.0)
    r = AmplitudeRaster(vals)
    seed = mask_block_bfs(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[1, 1]])
    lm = grow_labels(r, seed, params)
    assert lm.labels[1, 1] == 1
    assert lm.labels[1, 3] == 2
    assert lm.labels[1, 2] == 1  # min of neighboring labels {1, 2}
    assert np.count_nonzero(lm.labels) == 3
    np.testing.assert_array_equal(region_grow(r, seed, params), lm.labels == 1)


def test_region_grow_below_tau_orphan_stays_unlabeled():
    vals = np.zeros((3, 7))
    vals[1, 1] = 1.0
    vals[1, 5] = 0.4  # above the grow floor, below tau, no labeled neighbor
    params = DecoupleParams(tau_db=-3.0)
    r = AmplitudeRaster(vals)
    seed = mask_block_bfs(r, params.tau_db)
    lm = grow_labels(r, seed, params)
    assert lm.labels[1, 5] == 0
    assert lm.labels.max() == 1
    np.testing.assert_array_equal(region_grow(r, seed, params), lm.labels == 1)


def test_region_grow_rejects_empty_seed_and_zero_raster():
    with pytest.raises(EmptyRegion):
        region_grow(AmplitudeRaster(np.ones((4, 4))), np.zeros((4, 4), dtype=bool),
                    DecoupleParams())
    seed = np.zeros((4, 4), dtype=bool)
    seed[0, 0] = True
    with pytest.raises(AllZeroRaster):
        region_grow(AmplitudeRaster(np.zeros((4, 4))), seed, DecoupleParams())


def test_region_grow_equal_db_plateau_uses_row_major_order():
    # four equal pixels flank the peak; the leftmost is visited before its
    # right neighbor joins label 1, so it stays out, while the rightmost is
    # visited after its left neighbor joined and follows it in
    vals = np.zeros((3, 5))
    vals[1] = [0.3, 0.3, 1.0, 0.3, 0.3]
    params = DecoupleParams()
    r = AmplitudeRaster(vals)
    seed = mask_block_bfs(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[1, 2]])
    support = region_grow(r, seed, params)
    np.testing.assert_array_equal(support[1], [False, True, True, True, True])
    assert np.count_nonzero(support) == 4
    np.testing.assert_array_equal(support, grow_labels(r, seed, params).labels == 1)


def test_region_grow_darker_pixel_joins_through_seed_exemption():
    # (1, 2) clears tau but only touches the seed block diagonally, through
    # (0, 1), which is darker than it: it joins because seed pixels are
    # label 1 before any pixel is visited, not because of the order
    vals = np.zeros((3, 4))
    vals[0, 0] = 1.0
    vals[0, 1] = 0.6
    vals[1, 2] = 0.9
    params = DecoupleParams()
    r = AmplitudeRaster(vals)
    seed = mask_block_bfs(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[0, 0], [0, 1]])
    support = region_grow(r, seed, params)
    assert support[1, 2]
    assert np.count_nonzero(support) == 3
    np.testing.assert_array_equal(support, grow_labels(r, seed, params).labels == 1)


def test_region_grow_equals_label_one_of_oracle_on_every_step():
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128)
    params = DecoupleParams()
    n_steps = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            speckle=bool(seed % 2))
        residual = np.abs(chip.image.samples)
        for step in decouple_steps(chip.image, params):
            r = AmplitudeRaster(residual)
            block = mask_block_bfs(r, params.tau_db)
            support = region_grow(r, block, params)
            np.testing.assert_array_equal(support, grow_labels(r, block, params).labels == 1)
            np.testing.assert_array_equal(step.region.support, support)
            residual = step.residual
            n_steps += 1
    assert n_steps >= 200


def test_decouple_impulse_single_region_zero_residual():
    vals = np.zeros((16, 16))
    vals[5, 9] = 3.0
    steps = list(decouple_steps(AmplitudeRaster(vals)))
    assert len(steps) == 1
    region = steps[0].region
    assert region.peak == (5, 9)
    assert region.values[5, 9] == 3.0
    assert np.count_nonzero(region.values) == 1
    assert np.all(steps[0].residual == 0)


def test_decouple_three_psfs_brightest_first():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    truths = [Scatterer(12.0, 12.0, 1.0), Scatterer(20.0, 40.0, 0.8),
              Scatterer(44.0, 20.0, 0.6)]
    chip = synth_image(truths, grid, window)
    regions = decouple(chip)
    assert len(regions) >= 3
    for region, truth in zip(regions[:3], truths):
        py, px = region.peak
        assert np.hypot(px - truth.x, py - truth.y) <= 2.0


def test_decouple_respects_n_max():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_image([Scatterer(12.0, 12.0, 1.0), Scatterer(20.0, 40.0, 0.8),
                        Scatterer(44.0, 20.0, 0.6)], grid, window)
    regions = decouple(chip, DecoupleParams(n_max=2))
    assert len(regions) == 2


def test_decouple_min_peak_ratio_early_stop():
    vals = np.zeros((16, 16))
    vals[3, 3] = 1.0
    vals[12, 12] = 0.3
    r = AmplitudeRaster(vals)
    assert len(decouple(r, DecoupleParams(min_peak_ratio=0.5))) == 1
    assert len(decouple(r, DecoupleParams(min_peak_ratio=0.0))) == 2


def test_decouple_rejects_all_zero_chip():
    with pytest.raises(AllZeroRaster):
        decouple(AmplitudeRaster(np.zeros((8, 8))))


def test_decouple_loop_invariants():
    grid = FrequencyGrid(32, 32)
    window = taylor_window_2d(32, 32)
    params = DecoupleParams()
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(1, 7))
        chip = synth_target(n, grid, window, rng)
        prev = np.abs(chip.image.samples)
        prev_peak = np.inf
        steps = list(decouple_steps(chip.image, params))
        assert 1 <= len(steps) <= params.n_max
        for step in steps:
            assert np.all(step.residual >= 0)
            assert np.all(step.residual <= prev + 1e-15)
            seed_mask = mask_block_bfs(AmplitudeRaster(prev), params.tau_db)
            assert np.all(step.region.support[seed_mask])
            peak_val = step.region.values[step.region.peak]
            assert peak_val == prev.max()
            assert peak_val <= prev_peak
            prev_peak = peak_val
            prev = step.residual


def test_decouple_is_deterministic():
    grid = FrequencyGrid(32, 32)
    window = taylor_window_2d(32, 32)
    chip = synth_target(5, grid, window, np.random.Generator(np.random.PCG64(40)))
    a = decouple(chip.image)
    b = decouple(chip.image)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.values, rb.values)
        assert ra.peak == rb.peak


def test_decouple_params_validation():
    with pytest.raises(ValueError):
        DecoupleParams(tau_db=0.0)
    with pytest.raises(ValueError):
        DecoupleParams(grow_floor_db=-1.0)  # above tau
    with pytest.raises(ValueError):
        DecoupleParams(eps=0.0)
    with pytest.raises(ValueError):
        DecoupleParams(n_max=0)
    with pytest.raises(ValueError):
        DecoupleParams(min_peak_ratio=-0.1)


def test_label_map_validation():
    with pytest.raises(ValueError):
        LabelMap(np.array([[1, 3], [0, 0]]))  # label 2 missing
    with pytest.raises(ValueError):
        LabelMap(np.array([[-1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[0.5, 1.0]]))
    lm = LabelMap(np.array([[0, 1], [2, 1]]))
    assert (lm.height, lm.width) == (2, 2)


def test_scatter_region_validation():
    vals = np.zeros((4, 4))
    vals[1, 1] = 2.0
    sup = vals > 0
    ScatterRegion(values=vals, support=sup, peak=(1, 1), energy=4.0)
    with pytest.raises(EmptyRegion):
        ScatterRegion(values=np.zeros((4, 4)), support=np.zeros((4, 4), bool),
                      peak=(0, 0), energy=0.0)
    with pytest.raises(ValueError):
        ScatterRegion(values=vals, support=np.zeros((4, 4), bool) | True,
                      peak=(0, 0), energy=4.0)  # peak not at the maximum
    leaky = vals.copy()
    leaky[3, 3] = 0.5  # nonzero off support
    with pytest.raises(ValueError):
        ScatterRegion(values=leaky, support=sup, peak=(1, 1), energy=4.0)
