"""numpy's 2-D DFT convention, which `synth_image` and `forward_field` rely
on, against a naive DFT oracle; Taylor taper properties."""

import numpy as np
import pytest

from scatterkit.errors import InvalidWindowParams
from scatterkit.spectral import (rectangular_window_2d, taylor_window,
                                 taylor_window_2d)


def naive_dft2(x: np.ndarray) -> np.ndarray:
    """O(N^2) direct evaluation of the unnormalized 2-D DFT."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for ky in range(h):
        for kx in range(w):
            phase = np.exp(-2j * np.pi * (
                ky * np.arange(h)[:, None] / h + kx * np.arange(w)[None, :] / w))
            out[ky, kx] = np.sum(x * phase)
    return out


@pytest.mark.parametrize("shape", [(4, 4), (7, 5), (8, 12), (13, 13)])
def test_fft2d_matches_naive_dft(shape):
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    np.testing.assert_allclose(np.fft.fft2(x), naive_dft2(x), rtol=0, atol=1e-9)


def test_ifft2d_inverts_fft2d():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(10):
        x = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        np.testing.assert_allclose(np.fft.ifft2(np.fft.fft2(x)), x, rtol=0, atol=1e-12)


def test_unit_spectrum_inverts_to_unit_impulse():
    img = np.fft.ifft2(np.ones((16, 16), dtype=np.complex128))
    assert img[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(img.ravel()[1:])) < 1e-12


def test_parseval_identity():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        h, w = rng.integers(2, 65, size=2)
        x = rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))
        space = np.sum(np.abs(x) ** 2)
        freq = np.sum(np.abs(np.fft.fft2(x)) ** 2) / (h * w)
        assert freq == pytest.approx(space, rel=1e-6)


def test_taylor_window_shape_and_symmetry():
    w = taylor_window(64)
    assert w.shape == (64,)
    assert w.max() == pytest.approx(1.0, abs=0)
    assert np.all(w > 0)
    np.testing.assert_allclose(w, w[::-1], rtol=0, atol=1e-12)
    assert taylor_window(1).tolist() == [1.0]


def test_taylor_window_suppresses_sidelobes():
    # zero-padded DFT of the taper = its reconstruction PSF, finely sampled
    w = taylor_window(64, nbar=4, sidelobe_db=-35.0)
    spec = np.abs(np.fft.fft(w, 8192))
    spec /= spec.max()
    # first null: first local minimum moving away from the mainlobe
    i = 1
    while spec[i + 1] < spec[i]:
        i += 1
    sidelobe_db = 20.0 * np.log10(spec[i:4096].max())
    assert sidelobe_db < -30.0
    # and the rectangular (no-taper) PSF is much worse than that
    rect = np.abs(np.fft.fft(np.ones(64), 8192))
    rect /= rect.max()
    j = 1
    while rect[j + 1] < rect[j]:
        j += 1
    assert 20.0 * np.log10(rect[j:4096].max()) > -14.0


def test_taylor_window_equals_scipy_taylor_bit_for_bit():
    """The numpy port against scipy's taylor on 14,602 (length, nbar, sll) cases."""
    from scipy.signal.windows import taylor
    mismatches = []
    for length in range(2, 300):
        for nbar in range(1, 8):
            for sll in (20.0, 25.0, 30.0, 35.0, 40.0, 60.0, 100.0):
                ref = taylor(length, nbar=nbar, sll=sll, norm=False, sym=True)
                got = taylor_window(length, nbar=nbar, sidelobe_db=-sll)
                if not np.array_equal(got, ref / ref.max()):
                    mismatches.append((length, nbar, sll))
    assert mismatches == []


@pytest.mark.parametrize("kwargs", [
    {"nbar": 0}, {"nbar": -1}, {"sidelobe_db": 0.0}, {"sidelobe_db": 35.0},
    {"sidelobe_db": float("nan")}, {"sidelobe_db": float("-inf")},
    {"sidelobe_db": float("inf")},
])
def test_taylor_window_rejects_bad_params(kwargs):
    with pytest.raises(InvalidWindowParams):
        taylor_window(32, **kwargs)


def test_taylor_window_rejects_bad_length():
    with pytest.raises(InvalidWindowParams):
        taylor_window(0)


def test_window_2d_is_rank_one_and_normalized():
    w = taylor_window_2d(32, 48)
    np.testing.assert_array_equal(w.values, np.outer(w.row_taper, w.col_taper))
    assert w.values.max() == pytest.approx(1.0, abs=1e-12)
    assert (w.height, w.width) == (32, 48)


@pytest.mark.parametrize("height,width", [(1, 1), (1, 7), (32, 48), (128, 128), (299, 2)])
def test_window_2d_tapers_equal_the_1d_taylor_windows(height, width):
    for nbar, sidelobe_db in ((1, -20.0), (4, -35.0), (7, -100.0)):
        w = taylor_window_2d(height, width, nbar=nbar, sidelobe_db=sidelobe_db)
        row = taylor_window(height, nbar=nbar, sidelobe_db=sidelobe_db)
        col = taylor_window(width, nbar=nbar, sidelobe_db=sidelobe_db)
        assert w.row_taper.tobytes() == row.tobytes()
        assert w.col_taper.tobytes() == col.tobytes()


def test_rectangular_window_is_all_ones():
    w = rectangular_window_2d(5, 9)
    np.testing.assert_array_equal(w.values, np.ones((5, 9)))
