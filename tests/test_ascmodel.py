"""Forward model, reconstruction PSF, position fitting, synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterkit.ascmodel as ascmodel
from scatterkit.annotio import _fit, crop_chip
from scatterkit.ascmodel import (FrequencyGrid, Scatterer, SeparablePsf,
                                 base_psf, fit_scatterer, forward_field,
                                 lay_out_regions, synth_image,
                                 synth_target)
from scatterkit.decouple import DecoupleParams, ScatterRegion, decouple
from scatterkit.errors import (DimMismatch, EmptyInput, EmptyRegion,
                               InfeasiblePlacement, OutOfBounds)
from scatterkit.keypoints import instance_seed
from scatterkit.raster import amplitude
from scatterkit.spectral import rectangular_window_2d, taylor_window_2d

from oracles import (fit_block_2d, fit_direct, fit_fft, fit_per_region, psf_2d,
                     refine_offsets)

GRID32 = FrequencyGrid(32, 32)
TAYLOR32 = taylor_window_2d(32, 32)
RECT32 = rectangular_window_2d(32, 32)
PSF32 = base_psf(TAYLOR32)


def naive_field(scatterers, grid):
    out = np.zeros((grid.height, grid.width), dtype=np.complex128)
    for s in scatterers:
        for ky in range(grid.height):
            for kx in range(grid.width):
                out[ky, kx] += s.amplitude * np.exp(
                    -2j * np.pi * (kx * s.x / grid.width + ky * s.y / grid.height))
    return out


def test_forward_field_zero_position_is_constant_spectrum():
    field = forward_field([Scatterer(0.0, 0.0, 1.0)], GRID32)
    np.testing.assert_allclose(field.samples, np.ones((32, 32)), rtol=0, atol=1e-12)


def test_forward_field_matches_naive_sum():
    rng = np.random.Generator(np.random.PCG64(21))
    grid = FrequencyGrid(9, 7)
    for _ in range(5):
        specs = [Scatterer(x=float(rng.uniform(0, 7)), y=float(rng.uniform(0, 9)),
                           amplitude=float(rng.uniform(0.2, 2.0)))
                 for _ in range(int(rng.integers(1, 4)))]
        field = forward_field(specs, grid)
        np.testing.assert_allclose(field.samples, naive_field(specs, grid),
                                   rtol=0, atol=1e-9)


def test_forward_field_is_linear():
    rng = np.random.Generator(np.random.PCG64(22))
    for _ in range(10):
        a = [Scatterer(float(rng.uniform(0, 32)), float(rng.uniform(0, 32)), 1.0)
             for _ in range(2)]
        b = [Scatterer(float(rng.uniform(0, 32)), float(rng.uniform(0, 32)), 0.7)]
        joint = forward_field(a + b, GRID32).samples
        split = forward_field(a, GRID32).samples + forward_field(b, GRID32).samples
        np.testing.assert_allclose(joint, split, rtol=0, atol=1e-9)


def test_forward_field_integer_position_shift_theorem():
    field = forward_field([Scatterer(x=11.0, y=5.0, amplitude=1.0)], GRID32)
    img = np.fft.ifft2(field.samples)
    assert img[5, 11] == pytest.approx(1.0, abs=1e-12)
    masked = img.copy()
    masked[5, 11] = 0
    assert np.max(np.abs(masked)) < 1e-12


def test_forward_field_bounds_and_empty():
    with pytest.raises(OutOfBounds):
        forward_field([Scatterer(x=32.0, y=0.0, amplitude=1.0)], GRID32)
    with pytest.raises(OutOfBounds):
        forward_field([Scatterer(x=0.0, y=-0.1, amplitude=1.0)], GRID32)
    with pytest.raises(EmptyInput):
        forward_field([], GRID32)


def test_reconstruct_rect_window_is_unit_impulse():
    img = synth_image([Scatterer(0.0, 0.0, 1.0)], GRID32, RECT32)
    assert img.samples[0, 0] == pytest.approx(1.0, abs=1e-12)
    rest = img.samples.copy()
    rest[0, 0] = 0
    assert np.max(np.abs(rest)) < 1e-12


def test_reconstruct_peak_sits_at_center_position():
    img = synth_image([Scatterer(x=16.0, y=16.0, amplitude=1.0)], GRID32, TAYLOR32)
    amp = np.abs(img.samples)
    assert np.unravel_index(np.argmax(amp), amp.shape) == (16, 16)


def test_reconstruct_equals_rolled_base_psf():
    img = synth_image([Scatterer(x=9.0, y=21.0, amplitude=1.0)], GRID32, TAYLOR32)
    rolled = np.roll(base_psf(TAYLOR32).values, (21, 9), axis=(0, 1))
    np.testing.assert_allclose(np.abs(img.samples), rolled, rtol=0, atol=1e-12)


@pytest.mark.parametrize("height,width", [(32, 32), (48, 40), (64, 64), (128, 128)])
def test_base_psf_equals_2d_inverse_dft_of_window(height, width):
    window = taylor_window_2d(height, width)
    psf = base_psf(window)
    ref = psf_2d(window)
    assert psf.shape == (height, width)
    np.testing.assert_allclose(psf.values, ref, rtol=0, atol=1e-14 * ref.max())
    assert psf.norm_sq == pytest.approx(float(np.sum(ref * ref)), rel=1e-12)


def test_base_psf_builds_no_2d_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("2-D FFT called")
    monkeypatch.setattr(np.fft, "ifft2", forbidden)
    monkeypatch.setattr(np.fft, "fft2", forbidden)
    psf = base_psf(taylor_window_2d(48, 40))
    small = np.zeros((48, 40))
    small[10:13, 20:22] = 1.0
    # 1,584 support pixels times 48 x 40 candidates: 3.0 M products
    large = np.zeros((48, 40))
    large[2:46, 2:38] = 1.0
    for region in (small, large):
        fit_scatterer(region, psf)
        fit_scatterer(region, psf, refine=True)


def test_separable_psf_rejects_bad_factors():
    with pytest.raises(ValueError):
        SeparablePsf(row=np.ones((2, 2)), col=np.ones(3))
    with pytest.raises(ValueError):
        SeparablePsf(row=np.ones(3), col=np.ones(0))


@pytest.mark.parametrize("n", [1, 2, 3, 57, 128])
def test_separable_psf_windows_equal_the_tiled_sliding_view(n):
    rng = np.random.Generator(np.random.PCG64(n))
    row, col = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n + 1)
    psf = SeparablePsf(row, col)
    for v, windows in ((row, psf.row_windows), (col, psf.col_windows)):
        size = v.size
        ref = np.lib.stride_tricks.sliding_window_view(
            np.tile(v[-np.arange(size) % size], 2), size)
        assert windows.shape == (size + 1, size)
        np.testing.assert_array_equal(windows, ref)
        assert not windows.flags.writeable
        with pytest.raises(ValueError):
            windows[0, 0] = 1.0
        with pytest.raises(ValueError):
            windows[-1] += 1.0


def test_reconstruct_dim_mismatch():
    with pytest.raises(DimMismatch):
        synth_image([Scatterer(0.0, 0.0, 1.0)], FrequencyGrid(16, 16), TAYLOR32)


def test_translation_equivariance_of_amplitude():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(5):
        base = [Scatterer(float(rng.uniform(8, 20)), float(rng.uniform(8, 20)),
                          float(rng.uniform(0.5, 1.5))) for _ in range(3)]
        dx, dy = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        shifted = [Scatterer(s.x + dx, s.y + dy, s.amplitude) for s in base]
        amp0 = np.abs(np.fft.ifft2(forward_field(base, GRID32).samples))
        amp1 = np.abs(np.fft.ifft2(forward_field(shifted, GRID32).samples))
        np.testing.assert_allclose(amp1, np.roll(amp0, (dy, dx), axis=(0, 1)),
                                   rtol=0, atol=1e-9)


def test_psf_mainlobe_width_matches_1d_window_oracle():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    img = np.abs(synth_image([Scatterer(32.0, 32.0, 1.0)], grid, window).samples)
    # separability: through-peak profiles equal the 1-D window PSFs
    profile_x = img[32, :] / img[32, 32]
    psf_1d = np.abs(np.fft.ifft(window.col_taper))
    psf_1d = np.roll(psf_1d, 32) / psf_1d.max()
    np.testing.assert_allclose(profile_x, psf_1d, rtol=0, atol=1e-12)

    def half_power_width(fine):
        peak = np.argmax(fine)
        half = fine[peak] / np.sqrt(2.0)
        left = peak
        while fine[left] > half:
            left -= 1
        right = peak
        while fine[right] > half:
            right += 1
        return right - left

    # -3 dB width from a 16x zero-padded 1-D DFT, in fine bins
    fine = np.abs(np.fft.ifft(window.col_taper, 64 * 16))
    width_px = half_power_width(np.roll(fine, 512)) / 16.0
    # coarse estimate from the 2-D profile must agree within a pixel
    coarse = np.sum(profile_x > 1.0 / np.sqrt(2.0))
    assert abs(coarse - width_px) <= 1.0


def test_fit_single_pixel_impulse():
    region = np.zeros((32, 32))
    region[5, 7] = 1.0
    fit = fit_scatterer(region, PSF32)
    assert (fit.x, fit.y) == (7.0, 5.0)


def test_fit_self_consistency_on_full_psf():
    region = np.abs(synth_image([Scatterer(20.0, 30.0, 1.0)],
                                FrequencyGrid(48, 48),
                                taylor_window_2d(48, 48)).samples)
    fit = fit_scatterer(region, base_psf(taylor_window_2d(48, 48)))
    assert (fit.x, fit.y) == (20.0, 30.0)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-9)
    # closed-form residual cancels O(1) terms, so float64 leaves ~1e-8
    assert fit.residual == pytest.approx(0.0, abs=1e-6)


def test_fit_round_trip_integer_positions():
    rng = np.random.Generator(np.random.PCG64(24))
    for _ in range(20):
        x0, y0 = (int(v) for v in rng.integers(0, 32, size=2))
        amp = float(rng.uniform(0.3, 3.0))
        region = np.abs(synth_image([Scatterer(float(x0), float(y0), amp)],
                                    GRID32, TAYLOR32).samples)
        fit = fit_scatterer(region, PSF32)
        assert (fit.x, fit.y) == (float(x0), float(y0))
        assert fit.amplitude == pytest.approx(amp, rel=1e-9)


def test_fit_recovers_fractional_position_from_decoupled_region():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_image([Scatterer(40.0, 41.0, 1.0)], grid, window)
    regions = decouple(chip)
    fit = fit_scatterer(regions[0].values, base_psf(window))
    assert np.hypot(fit.x - 40.0, fit.y - 41.0) <= 1.0


def _fit_objective(region, window, x0, y0):
    psf = np.roll(base_psf(window).values, (y0, x0), axis=(0, 1))
    gain = float(np.sum(region * psf) / np.sum(psf * psf))
    return float(np.sum((region - gain * psf) ** 2))


def test_fit_is_locally_optimal():
    rng = np.random.Generator(np.random.PCG64(25))
    for _ in range(10):
        x0, y0 = (float(v) for v in rng.uniform(4, 28, size=2))
        region = np.abs(synth_image([Scatterer(x0, y0, 1.0)], GRID32, TAYLOR32).samples)
        region[region < 0.05] = 0.0  # confine to a realistic support
        fit = fit_scatterer(region, PSF32)
        best = _fit_objective(region, TAYLOR32, int(fit.x), int(fit.y))
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nx, ny = int(fit.x) + dx, int(fit.y) + dy
                if 0 <= nx < 32 and 0 <= ny < 32:
                    assert best <= _fit_objective(region, TAYLOR32, nx, ny) + 1e-9


def _assert_fit_matches_fft(region, psf):
    fit = fit_scatterer(region, psf)
    dense = region.values if isinstance(region, ScatterRegion) else region
    ref = fit_fft(dense, psf.values)
    assert (fit.x, fit.y) == (ref.x, ref.y)
    assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-9)
    assert fit.residual == pytest.approx(ref.residual, rel=1e-6, abs=1e-9)


def test_fit_direct_and_fft_paths_agree():
    rng = np.random.Generator(np.random.PCG64(26))
    for _ in range(10):
        x0, y0 = (float(v) for v in rng.uniform(4, 28, size=2))
        region = np.abs(synth_image([Scatterer(x0, y0, 1.0)], GRID32, TAYLOR32).samples)
        region[region < 0.05] = 0.0
        _assert_fit_matches_fft(region, PSF32)


@pytest.mark.parametrize("dim,n_support", [(256, 2_000), (512, 20_000)])
def test_fit_on_large_regions_matches_fft_oracle(dim, n_support):
    grid = FrequencyGrid(dim, dim)
    window = taylor_window_2d(dim, dim)
    psf = base_psf(window)
    rng = np.random.Generator(np.random.PCG64(dim))
    for _ in range(3):
        truth = [Scatterer(float(x), float(y), float(a))
                 for x, y, a in zip(rng.uniform(0, dim, 4), rng.uniform(0, dim, 4),
                                    rng.uniform(0.5, 1.5, 4))]
        region = np.abs(synth_image(truth, grid, window).samples)
        region[region < np.partition(region.ravel(), -n_support)[-n_support]] = 0.0
        assert np.count_nonzero(region) == n_support
        _assert_fit_matches_fft(region, psf)


def _assert_fit_matches_oracle(region, psf):
    fit = fit_scatterer(region, psf)
    ref = fit_direct(region, psf.values)
    assert (fit.x, fit.y) == (ref.x, ref.y)
    assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-12)
    assert fit.residual == pytest.approx(ref.residual, rel=1e-12)


def test_fit_matches_per_candidate_oracle_on_decoupled_chips():
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128)
    psf = base_psf(window)
    n_fits = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            speckle=bool(seed % 2))
        for region in decouple(chip.image):
            _assert_fit_matches_oracle(region.values, psf)
            n_fits += 1
    assert n_fits >= 200


def test_fit_exact_tie_resolves_row_major_first():
    # a two-tap psf scores a single-pixel region identically at the pixel
    # and one column to its left; the earlier candidate must win
    e0, e1 = np.eye(16)[:2]
    psf = SeparablePsf(row=e0, col=e0 + e1)
    region = np.zeros((16, 16))
    region[6, 9] = 2.0
    fit = fit_scatterer(region, psf)
    assert (fit.x, fit.y) == (8.0, 6.0)
    _assert_fit_matches_oracle(region, psf)


def _edge_band(band, h, w):
    """Cells a support may take: a 3-px band along one frame edge, or rows,
    columns or corners on both sides of an edge, so the support wraps."""
    allowed = np.zeros((h, w), dtype=bool)
    both_rows, both_cols = [0, 1, h - 2, h - 1], [0, 1, w - 2, w - 1]
    if band == "top":
        allowed[:3] = True
    elif band == "bottom":
        allowed[-3:] = True
    elif band == "left":
        allowed[:, :3] = True
    elif band == "right":
        allowed[:, -3:] = True
    elif band == "wrap-rows":
        allowed[both_rows] = True
    elif band == "wrap-cols":
        allowed[:, both_cols] = True
    else:
        allowed[np.ix_(both_rows, both_cols)] = True
    return allowed


@pytest.mark.parametrize("band", ["top", "bottom", "left", "right",
                                  "wrap-rows", "wrap-cols", "wrap-corners"])
def test_fit_on_supports_at_the_frame_edges_matches_oracle(band):
    # clamped candidate boxes, and window rows from both ends of the tiling
    rng = np.random.Generator(np.random.PCG64(28))
    psf = SeparablePsf(row=rng.uniform(0.05, 1.0, 24), col=rng.uniform(0.05, 1.0, 20))
    allowed = _edge_band(band, *psf.shape)
    cells = np.flatnonzero(allowed)
    for _ in range(30):
        keep = allowed & (rng.random(psf.shape) < rng.uniform(0.1, 0.6))
        keep.flat[rng.choice(cells)] = True
        region = np.where(keep, rng.uniform(0.1, 2.0, psf.shape), 0.0)
        _assert_fit_matches_oracle(region, psf)


def _block_edge_supports(h, w, rng):
    """Supports whose bounding block meets an edge case of the flat block
    index: the full frame width, one row, one column, a single pixel in
    each frame corner, and bands along and across the frame edges."""
    for _ in range(10):
        full = rng.random((h, w)) < 0.2
        full[rng.integers(h), 0] = full[rng.integers(h), w - 1] = True
        yield full
        row, col = np.zeros((h, w), dtype=bool), np.zeros((h, w), dtype=bool)
        row[rng.integers(h), rng.choice(w, size=rng.integers(1, w + 1), replace=False)] = True
        col[rng.choice(h, size=rng.integers(1, h + 1), replace=False), rng.integers(w)] = True
        yield row
        yield col
    for y, x in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]:
        corner = np.zeros((h, w), dtype=bool)
        corner[y, x] = True
        yield corner
    for band in ["top", "bottom", "left", "right", "wrap-rows", "wrap-cols", "wrap-corners"]:
        allowed = _edge_band(band, h, w)
        for _ in range(5):
            keep = allowed & (rng.random((h, w)) < 0.4)
            keep.flat[rng.choice(np.flatnonzero(allowed))] = True
            yield keep


@pytest.mark.parametrize("psf", [
    PSF32, SeparablePsf(row=np.random.default_rng(29).uniform(0.05, 1.0, 24),
                        col=np.random.default_rng(30).uniform(0.05, 1.0, 20))],
    ids=["taylor-32x32", "asymmetric-24x20"])
def test_fit_equals_the_2d_block_oracle_bit_for_bit(psf):
    rng = np.random.Generator(np.random.PCG64(31))
    h, w = psf.shape
    n = 0
    for support in _block_edge_supports(h, w, rng):
        values = np.where(support, rng.uniform(0.1, 2.0, (h, w)), 0.0)
        idx = np.flatnonzero(support)
        region = ScatterRegion(shape=(h, w), indices=idx, amplitudes=values.ravel()[idx])
        for refine in (False, True):
            ref = fit_block_2d(values, psf, refine=refine)
            assert fit_scatterer(values, psf, refine=refine) == ref
            assert fit_scatterer(region, psf, refine=refine) == ref
        n += 1
    assert n == 30 + 4 + 35


def test_fit_on_psfs_wrapping_the_frame_edges_matches_oracle():
    for x0, y0 in [(0.0, 0.0), (31.0, 31.0), (0.4, 16.0), (31.6, 9.3), (12.0, 0.2),
                   (20.5, 31.5), (0.5, 31.5), (31.2, 0.7)]:
        region = np.abs(synth_image([Scatterer(x0, y0, 1.0)], GRID32, TAYLOR32).samples)
        region[region < 0.05] = 0.0
        _assert_fit_matches_oracle(region, PSF32)


def test_fit_gather_spanning_several_chunks_matches_oracle():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    psf = base_psf(window)
    region = np.abs(synth_image([Scatterer(30.4, 22.7, 1.0)], grid, window).samples)
    region[region < 0.003 * region.max()] = 0.0
    support = region > 0
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    n_cand = (rows[-1] - rows[0] + 5) * (cols[-1] - cols[0] + 5)
    products = n_cand * np.count_nonzero(support)
    assert 196_608 < products
    _assert_fit_matches_oracle(region, psf)


def test_fit_refinement_matches_rolled_psf_oracle_on_decoupled_chips():
    grid = FrequencyGrid(128, 128)
    window = taylor_window_2d(128, 128)
    psf = base_psf(window)
    ref_psf = psf_2d(window)
    n_refined = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            speckle=bool(seed % 2))
        for region in decouple(chip.image):
            fit = fit_scatterer(region.values, psf, refine=True)
            coarse = fit_direct(region.values, ref_psf)
            dy, dx = refine_offsets(region.values, ref_psf, int(coarse.y), int(coarse.x))
            assert fit.y == pytest.approx(coarse.y + dy, rel=0, abs=1e-12)
            assert fit.x == pytest.approx(coarse.x + dx, rel=0, abs=1e-12)
            n_refined += (dy, dx) != (0.0, 0.0)
    assert n_refined >= 100


def test_fit_refinement_matches_rolled_psf_oracle_on_asymmetric_factors():
    # |IFFT| of a real taper is symmetric, so only factors from elsewhere
    # tell a shift by (sy - cy) from one by (cy - sy)
    rng = np.random.Generator(np.random.PCG64(7))
    psf = SeparablePsf(row=rng.uniform(0.05, 1.0, 24), col=rng.uniform(0.05, 1.0, 20))
    for _ in range(20):
        region = np.where(rng.random((24, 20)) < 0.3, rng.uniform(0.1, 2.0, (24, 20)), 0.0)
        fit = fit_scatterer(region, psf, refine=True)
        coarse = fit_direct(region, psf.values)
        dy, dx = refine_offsets(region, psf.values, int(coarse.y), int(coarse.x))
        assert fit.y == pytest.approx(coarse.y + dy, rel=0, abs=1e-12)
        assert fit.x == pytest.approx(coarse.x + dx, rel=0, abs=1e-12)


def _corr_2d(region, psf, y, x):
    h, w = psf.shape
    return float(np.sum(region * np.roll(psf, (int(y) % h, int(x) % w), axis=(0, 1))))


_factor = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_fit_on_random_separable_psf_maximizes_oracle_score(data):
    h = data.draw(st.integers(1, 12), label="height")
    w = data.draw(st.integers(1, 12), label="width")
    row = np.array(data.draw(st.lists(_factor, min_size=h, max_size=h), label="row"))
    col = np.array(data.draw(st.lists(_factor, min_size=w, max_size=w), label="col"))
    cells = data.draw(st.lists(st.integers(0, h * w - 1), min_size=1,
                               max_size=min(h * w, 10), unique=True), label="cells")
    vals = data.draw(st.lists(_factor, min_size=len(cells), max_size=len(cells)),
                     label="values")
    region = np.zeros(h * w)
    region[cells] = vals
    region = region.reshape(h, w)
    psf = SeparablePsf(row=row, col=col)
    fit = fit_scatterer(region, psf)
    ref = fit_direct(region, psf.values)
    # an exact tie may resolve differently under another summation order, so
    # the picked position must score the oracle's maximum, not equal its argmax
    assert _corr_2d(region, psf.values, fit.y, fit.x) == pytest.approx(
        _corr_2d(region, psf.values, ref.y, ref.x), rel=1e-12)
    assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-9)


def test_fit_subpixel_refinement_tightens_fractional_fits():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    region = np.abs(synth_image([Scatterer(30.4, 22.7, 1.0)], grid, window).samples)
    region[region < 0.05] = 0.0
    coarse = fit_scatterer(region, base_psf(window))
    refined = fit_scatterer(region, base_psf(window), refine=True)
    err_coarse = np.hypot(coarse.x - 30.4, coarse.y - 22.7)
    err_refined = np.hypot(refined.x - 30.4, refined.y - 22.7)
    assert err_refined <= err_coarse
    assert err_refined < 0.3


def test_fit_takes_a_region_like_its_full_frame_array():
    # the region holds a zero-valued support pixel, which the fit drops
    rng = np.random.Generator(np.random.PCG64(27))
    for _ in range(10):
        idx = np.sort(rng.choice(32 * 32, size=12, replace=False))
        vals = rng.uniform(0.1, 2.0, size=12)
        vals[rng.integers(12)] = 0.0
        region = ScatterRegion(shape=(32, 32), indices=idx, amplitudes=vals)
        for refine in (False, True):
            assert fit_scatterer(region, PSF32, refine=refine) == \
                fit_scatterer(region.values, PSF32, refine=refine)
        _assert_fit_matches_fft(region, PSF32)


def test_fit_rejects_empty_region_and_bad_dims():
    with pytest.raises(EmptyRegion):
        fit_scatterer(np.zeros((32, 32)), PSF32)
    with pytest.raises(DimMismatch):
        fit_scatterer(np.ones((16, 16)), PSF32)
    zero = ScatterRegion(shape=(32, 32), indices=[3, 4], amplitudes=[0.0, 0.0])
    with pytest.raises(EmptyRegion):
        fit_scatterer(zero, PSF32)
    with pytest.raises(DimMismatch):
        fit_scatterer(ScatterRegion(shape=(16, 32), indices=[3], amplitudes=[1.0]), PSF32)


# ------------------------------------------------- one layout per instance

def _region(values):
    """The `ScatterRegion` of a full-frame array."""
    h, w = values.shape
    idx = np.flatnonzero(values)
    return ScatterRegion(shape=(h, w), indices=idx, amplitudes=values.ravel()[idx])


def _assert_layout_fits_equal_the_oracle(regions, psf):
    """Each region fitted from one layout of all of them equals, field by
    field, the retired per-region fit; so do its own layout and `_fit`."""
    laid_out = lay_out_regions(regions, psf.shape)
    assert len(laid_out) == len(regions)
    for refine in (False, True):
        refs = [fit_per_region(r, psf, refine=refine) for r in regions]
        assert [fit_scatterer(r, psf, refine=refine) for r in laid_out] == refs
        assert [fit_scatterer(r, psf, refine=refine) for r in regions] == refs
    return len(regions)


def _chip_family(master_seed, n_chips, speckle, amplitude_range=(0.5, 1.5)):
    """Decoupled 128x128 chips drawn as `synth --scatterers 5..15` draws
    them: each chip's window and regions."""
    grid, window = FrequencyGrid(128, 128), taylor_window_2d(128, 128)
    for i in range(n_chips):
        rng = np.random.Generator(np.random.PCG64(
            instance_seed(master_seed, f"chip_{i:05d}", 0)))
        chip = synth_target(int(rng.integers(5, 16)), grid, window, rng,
                            amplitude_range=amplitude_range, speckle=speckle)
        yield window, decouple(chip.image)


def _scene_crops(seeds, dim=128):
    """Decoupled crops of scenes with four compact targets each, boxed by
    `synth_target`'s rule, as a multi-target `annotate` input is."""
    grid, window = FrequencyGrid(dim, dim), taylor_window_2d(dim, dim)
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(seed))
        scatterers, boxes = [], []
        for cy, cx in [(32, 32), (32, 96), (96, 32), (96, 96)]:
            pts = np.array([cx, cy]) + rng.uniform(-12.0, 12.0, size=(int(rng.integers(3, 8)), 2))
            scatterers += [Scatterer(float(x), float(y), float(rng.uniform(0.5, 1.5)))
                           for x, y in pts]
            boxes.append(ascmodel._enclosing_box(pts, float(rng.uniform(0.0, np.pi)), 3.0))
        image = synth_image(scatterers, grid, window)
        for box in boxes:
            chip, _ = crop_chip(image, box)
            yield taylor_window_2d(chip.height, chip.width), decouple(chip)


@pytest.mark.parametrize("family", ["clean", "speckled", "scenes",
                                    "hard-clean", "hard-speckled"])
def test_layout_fits_equal_the_per_region_oracle_on_decoupled_chips(family):
    # the annotate families, and criterion 10's hard sets in full (amplitudes
    # 0.02-1.5, seeds 0 and 3); `_fit` is the one fit path of annotate,
    # fit_regions, skaa_keypoints and criterion 1
    chips = {
        "clean": lambda: _chip_family(0, 20, False),
        "speckled": lambda: _chip_family(3, 20, True),
        "scenes": lambda: _scene_crops(range(4)),
        "hard-clean": lambda: _chip_family(0, 90, False, (0.02, 1.5)),
        "hard-speckled": lambda: _chip_family(3, 90, True, (0.02, 1.5)),
    }[family]()
    n = 0
    for window, regions in chips:
        psf = base_psf(window)
        n += _assert_layout_fits_equal_the_oracle(regions, psf)
        for refine in (False, True):
            assert _fit(regions, window, refine) == \
                [fit_per_region(r, psf, refine=refine) for r in regions]
    assert n >= 100


@pytest.mark.parametrize("psf", [
    PSF32, SeparablePsf(row=np.random.default_rng(32).uniform(0.05, 1.0, 24),
                        col=np.random.default_rng(33).uniform(0.05, 1.0, 20))],
    ids=["taylor-32x32", "asymmetric-24x20"])
def test_layout_of_edge_and_single_pixel_regions_equals_the_oracle(psf):
    # every region in one layout: supports on each frame edge (clamped
    # candidate boxes), the full width, one row or column, and single pixels
    rng = np.random.Generator(np.random.PCG64(34))
    h, w = psf.shape
    regions = [_region(np.where(support, rng.uniform(0.1, 2.0, (h, w)), 0.0))
               for support in _block_edge_supports(h, w, rng)]
    for band in ["top", "bottom", "left", "right"]:
        allowed = _edge_band(band, h, w)
        keep = allowed & (rng.random((h, w)) < 0.3)
        keep.flat[rng.choice(np.flatnonzero(allowed))] = True
        regions.append(_region(np.where(keep, rng.uniform(0.1, 2.0, (h, w)), 0.0)))
    for cell in rng.choice(h * w, size=8, replace=False):
        single = np.zeros((h, w))
        single.flat[cell] = rng.uniform(0.1, 2.0)
        regions.append(_region(single))
    assert sum(r.indices.size == 1 for r in regions) >= 12
    _assert_layout_fits_equal_the_oracle(regions, psf)
    # a full-frame array region takes the same layout as its ScatterRegion
    for region in regions[:10]:
        assert fit_scatterer(region.values, psf) == fit_per_region(region.values, psf)


def test_layout_bounds_exclude_zero_valued_pixels_joined_under_a_large_eps():
    # with eps = 0.05 a region grows over pixels that earlier regions set to
    # 0.0; the fit scores and bounds the positive pixels alone
    grid, window = FrequencyGrid(64, 64), taylor_window_2d(64, 64)
    psf = base_psf(window)
    n_zero = n_narrowed = 0
    for seed in range(6):
        chip = synth_target(8, grid, window, np.random.Generator(np.random.PCG64(seed)))
        regions = decouple(chip.image, DecoupleParams(eps=0.05))
        _assert_layout_fits_equal_the_oracle(regions, psf)
        for region, laid in zip(regions, lay_out_regions(regions, psf.shape)):
            pos = region.amplitudes > 0
            sy, sx = np.divmod(region.indices[pos], 64)
            assert laid.bounds == (sy.min(), sy.max(), sx.min(), sx.max())
            assert laid.values.tolist() == region.amplitudes[pos].tolist()
            assert laid.block.shape == (sy.max() - sy.min() + 1, sx.max() - sx.min() + 1)
            n_zero += not pos.all()
            ay, ax = np.divmod(region.indices, 64)
            n_narrowed += laid.bounds != (ay.min(), ay.max(), ax.min(), ax.max())
    assert n_zero >= 20 and n_narrowed >= 20


def test_layout_rejects_a_region_without_a_positive_pixel_and_takes_none():
    good = _region(np.where(np.eye(32) > 0, 1.0, 0.0))
    zero = ScatterRegion(shape=(32, 32), indices=[3, 4], amplitudes=[0.0, -0.0])
    for regions in ([zero], [good, zero], [zero, good], [good, np.zeros((32, 32))]):
        with pytest.raises(EmptyRegion):
            lay_out_regions(regions, (32, 32))
        with pytest.raises(EmptyRegion):
            _fit(regions, TAYLOR32, False)
    with pytest.raises(DimMismatch):
        lay_out_regions([good, np.ones((16, 16))], (32, 32))
    (laid,) = lay_out_regions([good], (32, 32))
    with pytest.raises(DimMismatch):
        fit_scatterer(laid, base_psf(taylor_window_2d(32, 16)))
    assert lay_out_regions([], (32, 32)) == []
    assert _fit([], TAYLOR32, True) == []


def test_scatterer_validation():
    with pytest.raises(ValueError):
        Scatterer(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        Scatterer(np.nan, 0.0, 1.0)


def _point_in_convex(poly, p):
    poly = np.asarray(poly)
    crosses = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        u, v = b - a, p - a
        crosses.append(u[0] * v[1] - u[1] * v[0])
    crosses = np.array(crosses)
    return np.all(crosses >= -1e-9) or np.all(crosses <= 1e-9)


def test_synth_target_is_deterministic():
    a = synth_target(6, GRID32, TAYLOR32, np.random.Generator(np.random.PCG64(9)))
    b = synth_target(6, GRID32, TAYLOR32, np.random.Generator(np.random.PCG64(9)))
    np.testing.assert_array_equal(a.image.samples, b.image.samples)
    assert a.truth == b.truth
    np.testing.assert_array_equal(a.box.corners, b.box.corners)


def test_synth_target_single_scatterer_peak_location():
    chip = synth_target(1, GRID32, TAYLOR32,
                        np.random.Generator(np.random.PCG64(10)),
                        amplitude_range=(1.0, 1.0))
    s = chip.truth[0]
    amp = amplitude(chip.image).values
    py, px = np.unravel_index(np.argmax(amp), amp.shape)
    assert abs(px - s.x) <= 0.5 + 1e-9
    assert abs(py - s.y) <= 0.5 + 1e-9


def test_synth_target_respects_separation_and_margins():
    rng = np.random.Generator(np.random.PCG64(11))
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    for _ in range(5):
        chip = synth_target(8, grid, window, rng, min_separation=5.0)
        pos = np.array([(s.x, s.y) for s in chip.truth])
        assert np.all(pos >= 4.0) and np.all(pos <= 60.0)
        d2 = np.sum((pos[:, None] - pos[None, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= 25.0 - 1e-9
        for p in pos:
            assert _point_in_convex(chip.box.corners, p)


def test_synth_target_well_separated_recovered_by_decoupling():
    grid = FrequencyGrid(64, 64)
    window = taylor_window_2d(64, 64)
    chip = synth_target(9, grid, window,
                        np.random.Generator(np.random.PCG64(12)),
                        min_separation=8.0)
    regions = decouple(chip.image)
    assert len(regions) >= 9
    truth = np.array([(s.x, s.y) for s in chip.truth])
    taken = set()
    for t in truth:
        dists = [np.hypot(r.peak[1] - t[0], r.peak[0] - t[1])
                 if i not in taken else np.inf
                 for i, r in enumerate(regions)]
        best = int(np.argmin(dists))
        assert dists[best] <= 2.0
        taken.add(best)


def test_synth_target_infeasible_placement():
    grid = FrequencyGrid(12, 12)
    window = taylor_window_2d(12, 12)
    with pytest.raises(InfeasiblePlacement):
        synth_target(16, grid, window, np.random.Generator(np.random.PCG64(13)))


def test_synth_image_requires_matching_window():
    with pytest.raises(DimMismatch):
        synth_image([Scatterer(1.0, 1.0, 1.0)], FrequencyGrid(16, 16), TAYLOR32)
