"""Peak-block masking, log-surface region growth, and the extraction loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scatterkit.annotio import crop_chip
from scatterkit.ascmodel import (FrequencyGrid, Scatterer, base_psf, fit_scatterer,
                                 synth_image, synth_target)
from scatterkit.decouple import DecoupleParams, ScatterRegion, decouple, decouple_steps
from scatterkit.errors import AllZeroRaster, EmptyRegion
from scatterkit.metrics import OrientedBox
from scatterkit.raster import AmplitudeRaster, amplitude, peak_db
from scatterkit.spectral import taylor_window_2d

from oracles import (LabelMap, decouple_steps_dense, grow_labels,
                     grow_support_dense, mask_block_dense)

N4_STRUCTURE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def first_support(r: AmplitudeRaster, params: DecoupleParams = DecoupleParams()) -> np.ndarray:
    """Support of the loop's first region: the peak's seed block, grown."""
    return decouple(r, replace(params, n_max=1))[0].support


def test_mask_block_impulse_is_single_pixel():
    vals = np.zeros((8, 8))
    vals[3, 4] = 2.0
    support = first_support(AmplitudeRaster(vals))
    expect = np.zeros((8, 8), dtype=bool)
    expect[3, 4] = True
    np.testing.assert_array_equal(support, expect)


def test_mask_block_excludes_disconnected_blob():
    vals = np.zeros((8, 8))
    vals[1, 1] = 1.0
    vals[1, 2] = 0.9
    vals[6, 6] = 0.95  # bright but not connected to the peak
    support = first_support(AmplitudeRaster(vals))
    assert support[1, 1] and support[1, 2]
    assert not support[6, 6]


def test_mask_block_threshold_is_strict():
    # both 0.6 pixels clear thr and are brighter than the pixel between them
    # and the peak, so growth cannot reach them: the left one joins only
    # because the pixel just above thr links it into the seed block; the
    # right one stays out because thr itself is not in the block
    thr = 10.0 ** (-3.0 / 10.0)
    vals = np.zeros((3, 7))
    vals[1] = [0.0, 0.6, np.nextafter(thr, 1.0), 1.0, thr, 0.6, 0.0]
    support = first_support(AmplitudeRaster(vals))
    np.testing.assert_array_equal(np.argwhere(support), [[1, 1], [1, 2], [1, 3], [1, 4]])


def test_mask_block_matches_flood_fill_oracle():
    # the loop's seed block is held to mask_block_dense on every step by the
    # loop-vs-dense tests below
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(20):
        vals = rng.random((16, 16))
        mask = mask_block_dense(AmplitudeRaster(vals), tau_db=-3.0)
        thr = vals.max() * 10.0 ** (-0.3)
        comp, _ = ndimage.label(vals > thr, structure=N4_STRUCTURE)
        sy, sx = np.unravel_index(np.argmax(vals), vals.shape)
        np.testing.assert_array_equal(mask, comp == comp[sy, sx])


def test_region_grow_isolated_peak_stays_put():
    vals = np.zeros((8, 8))
    vals[2, 2] = 1.0  # everything else sits at eps, far below the floor
    support = first_support(AmplitudeRaster(vals))
    expect = np.zeros((8, 8), dtype=bool)
    expect[2, 2] = True
    np.testing.assert_array_equal(support, expect)


def test_region_grow_monotone_hill_is_one_label():
    yy, xx = np.mgrid[0:32, 0:32]
    vals = np.exp(-((yy - 16.0) ** 2 + (xx - 16.0) ** 2) / (2 * 3.0 ** 2))
    params = DecoupleParams()
    support = first_support(AmplitudeRaster(vals), params)
    db = 10 * np.log10((vals + params.eps) / vals.max())
    np.testing.assert_array_equal(support, db > params.grow_floor_db)


def test_region_grow_second_hill_founds_new_label():
    yy, xx = np.mgrid[0:48, 0:48]
    hill1 = np.exp(-((yy - 14.0) ** 2 + (xx - 14.0) ** 2) / (2 * 1.5 ** 2))
    hill2 = 0.7 * np.exp(-((yy - 34.0) ** 2 + (xx - 34.0) ** 2) / (2 * 1.5 ** 2))
    r = AmplitudeRaster(hill1 + hill2)
    params = DecoupleParams()
    seed = mask_block_dense(r, params.tau_db)
    lm = grow_labels(r, seed, params)
    assert lm.labels[14, 14] == 1
    assert lm.labels[34, 34] == 2
    assert lm.labels.max() == 2
    assert not seed[34, 34]
    np.testing.assert_array_equal(first_support(r, params), lm.labels == 1)


def test_region_grow_joins_minimum_neighbor_label():
    vals = np.zeros((3, 5))
    vals[1, 1] = 1.0
    vals[1, 3] = 0.9
    vals[1, 2] = 0.55  # adjacent to both hills once they are labeled
    params = DecoupleParams(tau_db=-1.0)
    r = AmplitudeRaster(vals)
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[1, 1]])
    lm = grow_labels(r, seed, params)
    assert lm.labels[1, 1] == 1
    assert lm.labels[1, 3] == 2
    assert lm.labels[1, 2] == 1  # min of neighboring labels {1, 2}
    assert np.count_nonzero(lm.labels) == 3
    np.testing.assert_array_equal(first_support(r, params), lm.labels == 1)


def test_region_grow_below_tau_orphan_stays_unlabeled():
    vals = np.zeros((3, 7))
    vals[1, 1] = 1.0
    vals[1, 5] = 0.4  # above the grow floor, below tau, no labeled neighbor
    params = DecoupleParams(tau_db=-3.0)
    r = AmplitudeRaster(vals)
    seed = mask_block_dense(r, params.tau_db)
    lm = grow_labels(r, seed, params)
    assert lm.labels[1, 5] == 0
    assert lm.labels.max() == 1
    np.testing.assert_array_equal(first_support(r, params), lm.labels == 1)


def test_region_grow_equal_db_plateau_uses_row_major_order():
    # four equal pixels flank the peak; the leftmost is visited before its
    # right neighbor joins label 1, so it stays out, while the rightmost is
    # visited after its left neighbor joined and follows it in
    vals = np.zeros((3, 5))
    vals[1] = [0.3, 0.3, 1.0, 0.3, 0.3]
    params = DecoupleParams()
    r = AmplitudeRaster(vals)
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[1, 2]])
    support = first_support(r, params)
    np.testing.assert_array_equal(support[1], [False, True, True, True, True])
    assert np.count_nonzero(support) == 4
    np.testing.assert_array_equal(support, grow_labels(r, seed, params).labels == 1)


def test_region_grow_equal_db_of_distinct_amplitudes_uses_row_major_order():
    # 0.03 and the next float up round to the same dB, so the flood treats
    # them as a plateau and the later one joins from the earlier one; a
    # flood that compared amplitudes would leave it out
    vals = np.zeros((3, 6))
    vals[1] = [0.0, 1.0, 0.2, 0.03, 0.030000000000000002, 0.0]
    params = DecoupleParams()
    assert vals[1, 3] < vals[1, 4]
    db = peak_db(vals[1, 3:5], 1.0, params.eps)
    assert db[0] == db[1]
    r = AmplitudeRaster(vals)
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(np.flatnonzero(seed), [7])
    expect = [7, 8, 9, 10]
    np.testing.assert_array_equal(decouple(r, replace(params, n_max=1))[0].indices, expect)
    np.testing.assert_array_equal(np.flatnonzero(grow_support_dense(r, seed, params)), expect)
    np.testing.assert_array_equal(np.flatnonzero(grow_labels(r, seed, params).labels == 1),
                                  expect)


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
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(np.argwhere(seed), [[0, 0], [0, 1]])
    support = first_support(r, params)
    assert support[1, 2]
    assert np.count_nonzero(support) == 3
    np.testing.assert_array_equal(support, grow_labels(r, seed, params).labels == 1)


def test_region_grow_floor_is_strict():
    # 10*log10((v + eps) / 1) is exactly -20 dB, the default grow floor
    vals = np.zeros((3, 4))
    vals[1, 1] = 1.0
    vals[1, 2] = 0.009999000000000001
    vals[0, 1] = 0.0101
    params = DecoupleParams()
    db = 10.0 * np.log10((vals + params.eps) / 1.0)
    assert db[1, 2] == params.grow_floor_db < db[0, 1]
    support = first_support(AmplitudeRaster(vals), params)
    np.testing.assert_array_equal(np.argwhere(support), [[0, 1], [1, 1]])


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
            block = mask_block_dense(r, params.tau_db)
            np.testing.assert_array_equal(step.region.support,
                                          grow_labels(r, block, params).labels == 1)
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
            seed_mask = mask_block_dense(AmplitudeRaster(prev), params.tau_db)
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
    ScatterRegion(shape=(4, 4), indices=[5], amplitudes=[2.0], peak=(1, 1))
    with pytest.raises(EmptyRegion):
        ScatterRegion(shape=(4, 4), indices=np.zeros(0, dtype=np.int64),
                      amplitudes=np.zeros(0), peak=(0, 0))
    with pytest.raises(ValueError):
        ScatterRegion(shape=(4, 4), indices=np.arange(16), amplitudes=np.ravel(
            np.eye(4) * 2.0), peak=(0, 1))  # peak not at the maximum


@pytest.mark.parametrize("kwargs, error", [
    (dict(indices=np.zeros(0, dtype=np.int64), amplitudes=np.zeros(0)), EmptyRegion),
    (dict(peak=(0, 0)), ValueError),                     # peak outside the support
    (dict(amplitudes=[1.0, 3.0, 2.0]), ValueError),      # peak below the region maximum
    (dict(indices=[6, 5, 9]), ValueError),               # unsorted
    (dict(indices=[5, 5, 9], peak=(1, 1)), ValueError),  # duplicate
    (dict(indices=[-1, 5, 9]), ValueError),              # below the frame
    (dict(indices=[5, 6, 16]), ValueError),              # past the frame
    (dict(peak=(1, 5)), ValueError),                     # peak column outside the frame
    (dict(indices=[5.0, 6.0, 9.0]), ValueError),         # not integers
    (dict(amplitudes=[3.0, 2.0]), ValueError),           # one value short
], ids=["empty", "peak-off-support", "peak-below-max", "unsorted", "duplicate",
        "negative", "past-end", "peak-off-frame", "float-indices", "length"])
def test_scatter_region_rejects(kwargs, error):
    good = dict(shape=(4, 4), indices=[5, 6, 9], amplitudes=[3.0, 2.0, 1.0], peak=(1, 1))
    ScatterRegion(**good)
    with pytest.raises(error):
        ScatterRegion(**{**good, **kwargs})


def test_scatter_region_builds_full_frame_images_on_access():
    region = ScatterRegion(shape=(3, 4), indices=[1, 6, 11], amplitudes=[2.0, 0.0, 0.5],
                           peak=(0, 1))
    expect = np.zeros((3, 4))
    expect.flat[[1, 6, 11]] = [2.0, 0.0, 0.5]
    np.testing.assert_array_equal(region.values, expect)
    np.testing.assert_array_equal(np.flatnonzero(region.support), [1, 6, 11])
    assert region.energy == 4.25
    assert not region.indices.flags.writeable and not region.amplitudes.flags.writeable


def test_first_support_matches_dense_searches():
    rng = np.random.Generator(np.random.PCG64(32))
    params = DecoupleParams()
    for _ in range(20):
        r = AmplitudeRaster(rng.random((13, 17)) ** 4)
        block = mask_block_dense(r, params.tau_db)
        np.testing.assert_array_equal(first_support(r, params),
                                      grow_support_dense(r, block, params))


def _assert_loop_matches_dense_oracle(amp: AmplitudeRaster, params: DecoupleParams) -> int:
    """Every step of decouple_steps and decouple equals the dense loop to the
    last bit, and so does the fit of every region; returns the step count."""
    h, w = amp.values.shape
    psf = base_psf(FrequencyGrid(h, w), taylor_window_2d(h, w))
    steps = list(decouple_steps(amp, params))
    regions = decouple(amp, params)
    dense = list(decouple_steps_dense(amp, params))
    assert len(steps) == len(regions) == len(dense)
    for step, region, ref in zip(steps, regions, dense):
        for r in (step.region, region):
            np.testing.assert_array_equal(r.indices, np.flatnonzero(ref.support))
            np.testing.assert_array_equal(r.amplitudes, ref.values[ref.support])
            assert r.peak == ref.peak
        np.testing.assert_array_equal(step.region.support, ref.support)
        np.testing.assert_array_equal(step.region.values, ref.values)
        assert step.region.energy == ref.energy
        np.testing.assert_array_equal(step.residual, ref.residual)
        AmplitudeRaster(step.residual)  # what the next step reads stays valid
        for refine in (False, True):
            assert fit_scatterer(region, psf, refine=refine) == \
                fit_scatterer(ref.values, psf, refine=refine)
    return len(steps)


def test_loop_matches_dense_oracle_on_chips():
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128)
    n_steps = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            speckle=bool(seed % 2))
        n_steps += _assert_loop_matches_dense_oracle(amplitude(chip.image), DecoupleParams())
    assert n_steps >= 200


def test_loop_matches_dense_oracle_on_scene_crops():
    # one 256x256 scene, one compact target per 64 px cell, cropped as
    # annotation runs crop it
    rng = np.random.Generator(np.random.PCG64(41))
    scatterers, boxes = [], []
    for cell in range(16):
        center = 64.0 * np.array([cell % 4, cell // 4]) + 32.0 + rng.uniform(-8, 8, 2)
        pts = center + rng.uniform(-12.0, 12.0, size=(5 + cell % 6, 2))
        scatterers += [Scatterer(float(x), float(y), float(rng.uniform(0.5, 1.5)))
                       for x, y in pts]
        (x0, y0), (x1, y1) = pts.min(axis=0) - 3.0, pts.max(axis=0) + 3.0
        boxes.append(OrientedBox.from_rect(x0, y0, x1, y1))
    scene = synth_image(scatterers, FrequencyGrid(256, 256), taylor_window_2d(256, 256))
    n_steps = 0
    for box in boxes:
        chip, _ = crop_chip(scene, box)
        n_steps += _assert_loop_matches_dense_oracle(amplitude(chip), DecoupleParams())
    assert n_steps >= 150


def test_loop_matches_dense_oracle_below_hundred_eps():
    # with the peak under 100 * eps, eps / peak clears the -20 dB floor, so
    # pixels zeroed by earlier steps join later supports with value 0; the
    # fit must score only the positive ones, as the dense path does
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_target(8, grid, window, np.random.Generator(np.random.PCG64(5)))
    vals = np.abs(chip.image.samples)
    amp = AmplitudeRaster(vals * (5e-5 / vals.max()))
    params = DecoupleParams()
    assert _assert_loop_matches_dense_oracle(amp, params) == params.n_max
    zeros = sum(int(np.count_nonzero(r.amplitudes == 0)) for r in decouple(amp, params))
    assert zeros >= 10


def test_loop_matches_dense_oracle_for_each_stop_reason():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_target(12, grid, window, np.random.Generator(np.random.PCG64(8)))
    amp = amplitude(chip.image)
    peak = float(amp.values.max())

    # n_max: the cap ends the loop with the residual still above the floor
    params = DecoupleParams(n_max=4)
    assert _assert_loop_matches_dense_oracle(amp, params) == 4
    assert list(decouple_steps(amp, params))[-1].residual.max() >= params.min_peak_ratio * peak

    # peak floor: the residual peak falls under min_peak_ratio * the original peak
    params = DecoupleParams(min_peak_ratio=0.3)
    n = _assert_loop_matches_dense_oracle(amp, params)
    last = list(decouple_steps(amp, params))[-1].residual.max()
    assert n < params.n_max and 0.0 < last < 0.3 * peak

    # zero residual: every pixel has been lifted out before the cap
    vals = np.zeros((16, 16))
    vals[[2, 2, 9, 13], [3, 11, 7, 1]] = [1.0, 0.8, 0.6, 0.9]
    n = _assert_loop_matches_dense_oracle(AmplitudeRaster(vals), DecoupleParams())
    assert n == 4
    assert not list(decouple_steps(AmplitudeRaster(vals)))[-1].residual.any()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_loop_matches_dense_oracle_on_random_rasters(data):
    # few distinct levels make equal-dB plateaus; a 1e-5 scale puts the
    # peak under 100 * eps; frames down to 1 px wide exercise the border
    h = data.draw(st.integers(1, 10), label="height")
    w = data.draw(st.integers(1, 10), label="width")
    levels = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.0]),
                                min_size=h * w, max_size=h * w), label="levels")
    scale = data.draw(st.sampled_from([1.0, 1e-5]), label="scale")
    vals = np.array(levels).reshape(h, w) * scale
    if not vals.any():
        vals[h // 2, w // 2] = scale
    tau = data.draw(st.floats(-10.0, -0.5), label="tau_db")
    params = DecoupleParams(
        tau_db=tau, grow_floor_db=tau - data.draw(st.floats(0.0, 30.0), label="depth"),
        n_max=data.draw(st.integers(1, 25), label="n_max"),
        min_peak_ratio=data.draw(st.sampled_from([0.0, 1e-3, 0.3]), label="ratio"))
    _assert_loop_matches_dense_oracle(AmplitudeRaster(vals), params)
