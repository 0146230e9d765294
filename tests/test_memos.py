"""The per-length memos of the window tapers and the PSF factors: a cached
taper, window or PSF equals a fresh, uncached build to the bit, is shared
read-only, and the memos stay within their bounds."""

import numpy as np
import pytest

from scatterkit import ascmodel, spectral
from scatterkit.ascmodel import SeparablePsf, base_psf
from scatterkit.errors import InvalidWindowParams
from scatterkit.raster import WindowRaster
from scatterkit.spectral import rectangular_window_2d, taylor_window, taylor_window_2d

PRIMES = [2, 3, 5, 7, 11, 13, 127, 131, 251, 257, 293]


def _fresh_psf(window: WindowRaster) -> SeparablePsf:
    """`base_psf` through the validating constructor, with no memo."""
    return SeparablePsf(np.abs(np.fft.ifft(np.array(window.row_taper))),
                        np.abs(np.fft.ifft(np.array(window.col_taper))))


def _assert_psf_bits(got: SeparablePsf, ref: SeparablePsf) -> None:
    for name in ("row", "col", "row_windows", "col_windows"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert got.norm_sq == ref.norm_sq


def _assert_read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.5


@pytest.mark.parametrize("nbar,sidelobe_db", [(4, -35.0), (1, -20.0), (7, -100.0)])
def test_cached_tapers_windows_and_psfs_equal_a_fresh_build(nbar, sidelobe_db):
    spectral._memo_taper.cache_clear()
    ascmodel._memo_psf_axis.cache_clear()
    for n in [*range(1, 301), *PRIMES]:  # the primes again, now from the memo
        m = 301 - n
        fresh_row = taylor_window(n, nbar, sidelobe_db)
        fresh_col = taylor_window(m, nbar, sidelobe_db)
        for _ in range(2):  # a miss, then a hit
            window = taylor_window_2d(n, m, nbar, sidelobe_db)
            assert window.row_taper.tobytes() == fresh_row.tobytes(), n
            assert window.col_taper.tobytes() == fresh_col.tobytes(), n
            psf = base_psf(window)
            _assert_psf_bits(psf, _fresh_psf(WindowRaster(fresh_row, fresh_col)))
            _assert_read_only(window.row_taper, window.col_taper, psf.row, psf.col,
                              psf.row_windows, psf.col_windows)


def test_rectangular_window_psf_equals_a_fresh_build():
    for n in [1, 2, 64, *PRIMES]:
        window = rectangular_window_2d(n, n + 1)
        for _ in range(2):
            _assert_psf_bits(base_psf(window), _fresh_psf(window))


def test_each_taper_and_psf_axis_is_built_once(monkeypatch):
    spectral._memo_taper.cache_clear()
    ascmodel._memo_psf_axis.cache_clear()
    checks, transforms = [], []
    taper_fault, ifft = spectral._taper_fault, np.fft.ifft

    def counting_fault(taper):
        checks.append(taper.size)
        return taper_fault(taper)

    def counting_ifft(a, *args, **kwargs):
        transforms.append(len(a))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "_taper_fault", counting_fault)
    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    for h, w in ((40, 40), (40, 56), (56, 40), (40, 40)):
        base_psf(taylor_window_2d(h, w))
    assert sorted(checks) == [40, 56] and sorted(transforms) == [40, 56]


def test_a_bad_taper_length_is_invalid_window_params_naming_the_length():
    # Taylor tapers with a -1 dB design level dip below 0 at some lengths
    bad = next(n for n in range(2, 100) if taylor_window(n, 4, -1.0).min() <= 0)
    with pytest.raises(ValueError, match=r"values must lie in \(0, 1\]"):
        WindowRaster(taylor_window(bad, 4, -1.0), taylor_window(3, 4, -1.0))
    spectral._memo_taper.cache_clear()
    for h, w in ((bad, 3), (3, bad), (bad, bad)):
        for _ in range(2):  # the memo keeps no fault, and raises again
            with pytest.raises(InvalidWindowParams,
                               match=rf"^Taylor taper of length {bad} \(nbar 4, -1.0 dB\): "
                                     r"values must lie in \(0, 1\]$"):
                taylor_window_2d(h, w, 4, -1.0)
    assert spectral._memo_taper.cache_info().currsize == 1  # length 3's taper


@pytest.mark.parametrize("nbar", [4.0, 4.5])
def test_a_non_integer_nbar_is_rejected_with_the_memo_cold_and_warm(nbar):
    spectral._memo_taper.cache_clear()
    for _ in ("cold", "warm"):
        for build in (lambda: taylor_window(16, nbar), lambda: taylor_window_2d(16, 24, nbar),
                      lambda: taylor_window_2d(16, 24, nbar=nbar, sidelobe_db=-35.0)):
            with pytest.raises(InvalidWindowParams, match="nbar must be an integer"):
                build()
        window = taylor_window_2d(16, 24, 4)  # fills the memo for these lengths
    assert spectral._memo_taper.cache_info().currsize == 2
    # an integer of another type is the same key, and the same taper
    assert taylor_window_2d(16, 24, np.int64(4)).row_taper is window.row_taper


def test_memos_stay_within_their_bounds():
    for memo, size in ((spectral._memo_taper, spectral.TAPER_MEMO_SIZE),
                       (ascmodel._memo_psf_axis, ascmodel.PSF_MEMO_SIZE)):
        assert memo.cache_info().maxsize == size
    for n in range(1, spectral.TAPER_MEMO_SIZE + 60):
        window = taylor_window_2d(n, n)
        psf = base_psf(window)
        assert spectral._memo_taper.cache_info().currsize <= spectral.TAPER_MEMO_SIZE
        assert ascmodel._memo_psf_axis.cache_info().currsize <= ascmodel.PSF_MEMO_SIZE
    # the memos are full, and an evicted length builds again to the same bits
    assert spectral._memo_taper.cache_info().currsize == spectral.TAPER_MEMO_SIZE
    assert ascmodel._memo_psf_axis.cache_info().currsize == ascmodel.PSF_MEMO_SIZE
    window = taylor_window_2d(1, 2)
    assert window.row_taper.tobytes() == taylor_window(1).tobytes()
    _assert_psf_bits(base_psf(window), _fresh_psf(window))
