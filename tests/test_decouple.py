"""Peak-block masking, amplitude-ordered region growth, and the extraction loop."""

from dataclasses import replace
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from scatterkit.annotio import crop_chip
from scatterkit.ascmodel import (FrequencyGrid, Scatterer, base_psf, fit_scatterer,
                                 synth_image, synth_target)
from scatterkit.decouple import DecoupleParams, ScatterRegion, decouple
from scatterkit.errors import AllZeroRaster, EmptyRegion
from scatterkit.keypoints import instance_seed
from scatterkit.metrics import OrientedBox
from scatterkit.raster import AmplitudeRaster, ComplexRaster, amplitude
from scatterkit.spectral import taylor_window_2d

from oracles import (LabelMap, decouple_residuals, decouple_steps_dense, fit_block_2d,
                     grow_labels, grow_support_db, grow_support_dense, mask_block_dense,
                     peak_db)

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


def _assert_first_supports(r: AmplitudeRaster, params: DecoupleParams,
                           by_amplitude: list[int], by_db: list[int]) -> None:
    """The loop's first region and the dense amplitude flood have the flat
    support `by_amplitude`; the retired dB flood has `by_db`."""
    params = replace(params, n_max=1)
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(decouple(r, params)[0].indices, by_amplitude)
    np.testing.assert_array_equal(np.flatnonzero(grow_support_dense(r, seed, params)),
                                  by_amplitude)
    np.testing.assert_array_equal(np.flatnonzero(grow_labels(r, seed, params).labels == 1),
                                  by_amplitude)
    np.testing.assert_array_equal(np.flatnonzero(grow_support_db(r, seed, params)), by_db)


def test_region_grow_orders_distinct_amplitudes_of_equal_db_by_amplitude():
    # 0.03 and the next float up round to the same dB: the dB flood ties
    # them row-major, so the later one joins from the earlier one, while in
    # amplitude order the larger one comes first and stays out
    vals = np.zeros((3, 6))
    vals[1] = [0.0, 1.0, 0.2, 0.03, np.nextafter(0.03, np.inf), 0.0]
    params = DecoupleParams()
    db = peak_db(vals[1, 3:5], 1.0, params.eps)
    assert vals[1, 3] < vals[1, 4] and db[0] == db[1]
    r = AmplitudeRaster(vals)
    np.testing.assert_array_equal(np.flatnonzero(mask_block_dense(r, params.tau_db)), [7])
    _assert_first_supports(r, params, by_amplitude=[7, 8, 9], by_db=[7, 8, 9, 10])


def test_region_grow_orders_distinct_amplitudes_of_equal_v_plus_eps_by_amplitude():
    # 1e-23 and 5e-23 vanish against eps, so both lie at the dB of eps alone,
    # -10 dB below the peak: the smaller one joins from the peak, and only
    # the dB flood lets the larger one follow it in row-major order
    params = DecoupleParams()
    vals = np.array([[1e-5, 1e-23, 5e-23]])
    assert vals[0, 1] + params.eps == vals[0, 2] + params.eps
    _assert_first_supports(AmplitudeRaster(vals), params, by_amplitude=[0, 1],
                           by_db=[0, 1, 2])


@pytest.mark.parametrize("peak, eps, floor_db", [
    (1.0, 1e-6, -20.0),
    # the floor's amplitude, about 1.6e-319, is subnormal
    (1e-305, 2e-323, -138.0),
], ids=["unit-peak", "subnormal-floor"])
def test_region_grow_floor_admits_the_smallest_amplitude_above_it(peak, eps, floor_db):
    # the smallest v with v + eps > peak * 10^(floor/10) joins, and the
    # float below it does not
    params = DecoupleParams(eps=eps, grow_floor_db=floor_db)
    thr = peak * 10.0 ** (floor_db / 10.0)
    below, lowest = 0, int(np.float64(peak).view(np.int64))
    while lowest - below > 1:  # nonnegative floats order as their bit patterns
        mid = (below + lowest) // 2
        if float(np.array([mid]).view(np.float64)[0]) + eps > thr:
            lowest = mid
        else:
            below = mid
    for bits, joins in ((lowest, True), (below, False)):
        vals = np.zeros((3, 4))
        vals[1, 1] = peak
        vals[1, 2] = np.array([bits]).view(np.float64)[0]
        r = AmplitudeRaster(vals)
        support = first_support(r, params)
        assert support[1, 2] == joins
        np.testing.assert_array_equal(
            support, grow_support_dense(r, mask_block_dense(r, params.tau_db), params))


def test_region_grow_with_large_eps_takes_zeros_but_never_the_border():
    # against a peak of 1, eps = 10 puts every amplitude within 0.5 dB of
    # the peak, so zeros clear the floor; the equal zeros join in row-major
    # order, and the flood stops at the -inf border of the frame, which a
    # border of 0 or -1 would cross
    params = DecoupleParams(eps=10.0, n_max=1)
    vals = np.zeros((4, 5))
    vals[1, 2] = 1.0
    r = AmplitudeRaster(vals)
    region = decouple(r, params)[0]
    np.testing.assert_array_equal(region.indices, np.arange(1, 20))
    seed = mask_block_dense(r, params.tau_db)
    np.testing.assert_array_equal(region.support, grow_support_dense(r, seed, params))


def test_region_grow_orders_by_amplitude_outside_the_normal_range():
    # against a 1e300 peak, 1e-20 and 1.0001e-20 give ratios near 1e-320,
    # subnormal floats that round to one dB value, so the dB flood ties them
    # row-major although the amplitudes differ by 1e-4 of themselves; both
    # clear the -3210 dB floor, whose ratio 10^-321 is subnormal too
    params = DecoupleParams(eps=1e-300, grow_floor_db=-3210.0)
    vals = np.array([[1e300, 1e-20, 1.0001e-20]])
    db = peak_db(vals[0, 1:], 1e300, params.eps)
    assert db[0] == db[1]
    _assert_first_supports(AmplitudeRaster(vals), params, by_amplitude=[0, 1],
                           by_db=[0, 1, 2])


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
        for step in decouple_residuals(chip.image, params):
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
    steps = decouple_residuals(AmplitudeRaster(vals))
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
        steps = decouple_residuals(chip.image, params)
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
    ScatterRegion(shape=(4, 4), indices=[5], amplitudes=[2.0])
    with pytest.raises(EmptyRegion):
        ScatterRegion(shape=(4, 4), indices=np.zeros(0, dtype=np.int64),
                      amplitudes=np.zeros(0))


@pytest.mark.parametrize("kwargs, error", [
    (dict(indices=np.zeros(0, dtype=np.int64), amplitudes=np.zeros(0)), EmptyRegion),
    (dict(indices=[6, 5, 9]), ValueError),               # unsorted
    (dict(indices=[5, 5, 9]), ValueError),               # duplicate
    (dict(indices=[-1, 5, 9]), ValueError),              # below the frame
    (dict(indices=[5, 6, 16]), ValueError),              # past the frame
    (dict(indices=[5.0, 6.0, 9.0]), ValueError),         # not integers
    (dict(amplitudes=[3.0, 2.0]), ValueError),           # one value short
], ids=["empty", "unsorted", "duplicate", "negative", "past-end", "float-indices", "length"])
def test_scatter_region_rejects(kwargs, error):
    good = dict(shape=(4, 4), indices=[5, 6, 9], amplitudes=[3.0, 2.0, 1.0])
    ScatterRegion(**good)
    with pytest.raises(error):
        ScatterRegion(**{**good, **kwargs})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_scatter_region_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        ScatterRegion(shape=(8, 8), indices=[0], amplitudes=[bad])
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        ScatterRegion(shape=(4, 4), indices=[5, 6, 9], amplitudes=[3.0, bad, 1.0])


def test_scatter_region_builds_full_frame_images_on_access():
    region = ScatterRegion(shape=(3, 4), indices=[1, 6, 11], amplitudes=[2.0, 0.0, 0.5])
    expect = np.zeros((3, 4))
    expect.flat[[1, 6, 11]] = [2.0, 0.0, 0.5]
    np.testing.assert_array_equal(region.values, expect)
    np.testing.assert_array_equal(np.flatnonzero(region.support), [1, 6, 11])
    assert not region.indices.flags.writeable and not region.amplitudes.flags.writeable


def test_first_support_matches_dense_searches():
    rng = np.random.Generator(np.random.PCG64(32))
    params = DecoupleParams()
    for _ in range(20):
        r = AmplitudeRaster(rng.random((13, 17)) ** 4)
        block = mask_block_dense(r, params.tau_db)
        np.testing.assert_array_equal(first_support(r, params),
                                      grow_support_dense(r, block, params))


def _assert_regions_equal_validated_ones(amp: AmplitudeRaster,
                                         params: DecoupleParams = DecoupleParams()) -> int:
    """Every region of two decouple runs passes the public constructor and
    equals what it builds, field by field; returns the count."""
    regions = decouple(amp, params)
    again = decouple(amp, params)
    assert len(again) == len(regions)
    for region in regions + again:
        assert not (region.indices.flags.writeable or region.amplitudes.flags.writeable)
        checked = ScatterRegion(shape=region.shape, indices=region.indices,
                                amplitudes=region.amplitudes)
        assert region.shape == checked.shape and region.peak == checked.peak
        assert all(type(n) is int for n in region.shape + region.peak)
        for got, want, dtype in [(region.indices, checked.indices, np.int64),
                                 (region.amplitudes, checked.amplitudes, np.float64)]:
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous
    return len(regions)


def _acceptance_chips(master_seed: int, speckle: bool,
                      n_chips: int = 100) -> Iterator[ComplexRaster]:
    """The chips of `scatterkit synth --chips 100 --dim 128 --scatterers 5..15`."""
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128, nbar=4, sidelobe_db=-35.0)
    for i in range(n_chips):
        rng = np.random.Generator(np.random.PCG64(
            instance_seed(master_seed, f"chip_{i:05d}", 0)))
        n = int(rng.integers(5, 16))
        yield synth_target(n, grid, window, rng, speckle=speckle).image


def _scene_crops(seed: int) -> Iterator[ComplexRaster]:
    """Crops of a 256x256 scene of 12 compact targets (5..10 scatterers in
    ~24 px, one box each), as annotation runs crop them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scatterers, boxes = [], []
    for cell in range(12):
        center = np.array([40.0 + 60.0 * (cell % 4), 40.0 + 70.0 * (cell // 4)])
        pts = center + rng.uniform(-12.0, 12.0, size=(5 + cell % 6, 2))
        scatterers += [Scatterer(float(x), float(y), float(rng.uniform(0.5, 1.5)))
                       for x, y in pts]
        (x0, y0), (x1, y1) = pts.min(axis=0) - 3.0, pts.max(axis=0) + 3.0
        boxes.append(OrientedBox.from_rect(x0, y0, x1, y1))
    scene = synth_image(scatterers, FrequencyGrid(256, 256), taylor_window_2d(256, 256))
    for box in boxes:
        yield crop_chip(scene, box)[0]


@pytest.mark.parametrize("source", ["clean-seed-0", "speckled-seed-3", "scene-crops"])
def test_loop_regions_equal_validated_ones(source):
    params = DecoupleParams()
    if source == "scene-crops":
        chips = [c for seed in (5, 6, 7) for c in _scene_crops(seed)]
        # the default stop ends a crop after ~10 steps; -60 dB runs ~20
        params = DecoupleParams(min_peak_ratio=1e-3)
    else:
        chips = _acceptance_chips(int(source[-1]), source.startswith("speckled"))
    assert sum(_assert_regions_equal_validated_ones(amplitude(c), params)
               for c in chips) >= 600


def _assert_same_regions(got: list[ScatterRegion], want: list[ScatterRegion]) -> int:
    """Two region lists agree to the last bit; returns the count."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.peak == w.peak
        for a, b in [(g.indices, w.indices), (g.amplitudes, w.amplitudes)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return len(got)


@pytest.mark.parametrize("source", ["clean-seed-0", "speckled-seed-3", "scene-crops"])
def test_decouple_of_a_chip_equals_decouple_of_its_amplitude(source):
    # the loop writes |chip| straight into its frame, from a crop view as
    # from a whole chip; amplitude() is the path it replaced
    if source == "scene-crops":
        chips = list(_scene_crops(5))
        assert not any(c.samples.flags.c_contiguous for c in chips)
    else:
        inside = OrientedBox.from_rect(5, 3, 120, 126)
        chips = [c for image in _acceptance_chips(int(source[-1]),
                                                  source.startswith("speckled"), 10)
                 for c in (image, crop_chip(image, inside)[0])]
    n = sum(_assert_same_regions(decouple(c), decouple(amplitude(c))) for c in chips)
    assert n >= 5 * len(chips)


def test_decouple_of_a_chip_whose_amplitude_overflows_raises_as_amplitude_does():
    z = np.ones((6, 7), dtype=np.complex128)
    z[2, 3] = 1e308 + 1e308j  # |z| ~ 1.41e308, finite
    chip = ComplexRaster(z)
    _assert_same_regions(decouple(chip), decouple(amplitude(chip)))
    z[2, 3] = 1.5e308 - 1.5e308j  # finite parts, |z| overflows to inf
    chip = ComplexRaster(z)
    crop, _ = crop_chip(chip, OrientedBox.from_rect(1, 1, 5, 4))
    msg = "amplitude raster contains NaN/Inf values"
    with np.errstate(over="ignore"):  # np.abs may flag the overflow
        with pytest.raises(ValueError, match=msg):
            amplitude(chip)
        for img in (chip, crop):
            with pytest.raises(ValueError, match=msg):
                decouple(img)


def _assert_loop_matches_dense_oracle(amp: AmplitudeRaster, params: DecoupleParams) -> int:
    """Every region of decouple, and the residual after it that the regions
    fix, equals the dense loop's to the last bit, and so does the fit of every
    region; returns the step count."""
    h, w = amp.values.shape
    psf = base_psf(taylor_window_2d(h, w))
    steps = decouple_residuals(amp, params)
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
        np.testing.assert_array_equal(step.residual, ref.residual)
        AmplitudeRaster(step.residual)  # what the next step reads stays valid
        for refine in (False, True):
            assert fit_scatterer(region, psf, refine=refine) == \
                fit_block_2d(ref.values, psf, refine=refine)
    return len(steps)


def _oracle_chips() -> Iterator[AmplitudeRaster]:
    """20 128x128 chips of 5..15 scatterers, clean and speckled in turn."""
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128)
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            speckle=bool(seed % 2))
        yield amplitude(chip.image)


def test_loop_matches_dense_oracle_on_chips():
    n_steps = sum(_assert_loop_matches_dense_oracle(amp, DecoupleParams())
                  for amp in _oracle_chips())
    assert n_steps >= 200


@pytest.mark.parametrize("min_peak_ratio", [DecoupleParams().min_peak_ratio, 1e-3],
                         ids=["sidelobe-stop", "60db-stop"])
def test_amplitude_flood_equals_db_flood_on_chips(min_peak_ratio):
    # the amplitude order differs from the dB order only on ties that
    # log10's rounding makes; no step of these chips meets one
    params = DecoupleParams(min_peak_ratio=min_peak_ratio)
    n_steps = 0
    for amp in _oracle_chips():
        residual = amp.values
        for step in decouple_residuals(amp, params):
            r = AmplitudeRaster(residual)
            block = mask_block_dense(r, params.tau_db)
            np.testing.assert_array_equal(step.region.support,
                                          grow_support_db(r, block, params))
            residual = step.residual
            n_steps += 1
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
    params = DecoupleParams(min_peak_ratio=1e-3)  # the -60 dB stop runs more steps
    n_steps = 0
    for box in boxes:
        chip, _ = crop_chip(scene, box)
        n_steps += _assert_loop_matches_dense_oracle(amplitude(chip), params)
    assert n_steps >= 150


def test_loop_matches_dense_oracle_past_255_search_stamps():
    # each step runs two searches, each with the next one-byte mark stamp,
    # so a loop of more than 127 steps clears the marks and starts again
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_target(12, grid, window, np.random.Generator(np.random.PCG64(9)),
                        speckle=True)
    params = DecoupleParams(n_max=300, min_peak_ratio=0.0)
    assert _assert_loop_matches_dense_oracle(amplitude(chip.image), params) > 127


def test_loop_matches_dense_oracle_below_hundred_eps():
    # with the peak under 100 * eps, eps / peak clears the -20 dB floor, so
    # pixels zeroed by earlier steps join later supports with value 0; the
    # fit must score only the positive ones, as the dense path does
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_target(8, grid, window, np.random.Generator(np.random.PCG64(5)))
    vals = np.abs(chip.image.samples)
    amp = AmplitudeRaster(vals * (5e-5 / vals.max()))
    params = DecoupleParams(min_peak_ratio=1e-3)  # runs the whole budget
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
    assert decouple_residuals(amp, params)[-1].residual.max() >= params.min_peak_ratio * peak

    # peak floor: the residual peak falls under min_peak_ratio * the original peak
    params = DecoupleParams(min_peak_ratio=0.3)
    n = _assert_loop_matches_dense_oracle(amp, params)
    last = decouple_residuals(amp, params)[-1].residual.max()
    assert n < params.n_max and 0.0 < last < 0.3 * peak

    # zero residual: every pixel has been lifted out before the cap
    vals = np.zeros((16, 16))
    vals[[2, 2, 9, 13], [3, 11, 7, 1]] = [1.0, 0.8, 0.6, 0.9]
    n = _assert_loop_matches_dense_oracle(AmplitudeRaster(vals), DecoupleParams())
    assert n == 4
    assert not decouple_residuals(AmplitudeRaster(vals))[-1].residual.any()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_loop_matches_dense_oracle_on_random_rasters(data):
    # few distinct levels make plateaus of equal amplitude, and each level's
    # next float up a distinct amplitude 1 ulp above it; a 1e-5 scale or a
    # large eps puts the peak under 100 * eps; frames down to 1 px wide
    # exercise the border
    h = data.draw(st.integers(1, 10), label="height")
    w = data.draw(st.integers(1, 10), label="width")
    base = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0]
    levels = data.draw(st.lists(st.sampled_from(base + [float(np.nextafter(v, np.inf))
                                                        for v in base]),
                                min_size=h * w, max_size=h * w), label="levels")
    scale = data.draw(st.sampled_from([1.0, 1e-5]), label="scale")
    vals = np.array(levels).reshape(h, w) * scale
    if not vals.any():
        vals[h // 2, w // 2] = scale
    tau = data.draw(st.floats(-10.0, -0.5), label="tau_db")
    params = DecoupleParams(
        tau_db=tau, grow_floor_db=tau - data.draw(st.floats(0.0, 30.0), label="depth"),
        eps=10.0 ** data.draw(st.floats(-9.0, 1.0), label="log10_eps"),
        n_max=data.draw(st.integers(1, 25), label="n_max"),
        min_peak_ratio=data.draw(st.sampled_from([0.0, 1e-3, 0.3]), label="ratio"))
    _assert_loop_matches_dense_oracle(AmplitudeRaster(vals), params)
