"""Raster value types: validation, immutability, amplitude and dB conversion."""

import dataclasses

import numpy as np
import pytest

from scatterkit.raster import (AmplitudeRaster, ComplexRaster, WindowRaster,
                               amplitude, peak_db)


def test_complex_raster_promotes_and_freezes():
    r = ComplexRaster(np.ones((3, 4), dtype=np.complex64))
    assert r.samples.dtype == np.complex128
    assert (r.height, r.width) == (3, 4)
    with pytest.raises(ValueError):
        r.samples[0, 0] = 0


@pytest.mark.parametrize("bad", [
    np.ones(5), np.ones((0, 3)), np.ones((2, 2, 2)),
    np.array([[1.0, np.nan]]), np.array([[1.0, np.inf]]),
])
def test_complex_raster_rejects_bad_shapes_and_values(bad):
    with pytest.raises(ValueError):
        ComplexRaster(bad)


def test_amplitude_raster_rejects_negatives():
    with pytest.raises(ValueError):
        AmplitudeRaster(np.array([[1.0, -0.5]]))


def test_amplitude_matches_modulus():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        z = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
        amp = amplitude(ComplexRaster(z))
        np.testing.assert_array_equal(amp.values, np.abs(z))


def test_to_db_formula_and_peak():
    vals = np.array([[4.0, 2.0], [1.0, 0.0]])
    eps = 1e-6
    d = peak_db(vals, 4.0, eps)
    expected = 10.0 * np.log10((vals + eps) / 4.0)
    np.testing.assert_allclose(d, expected, rtol=0, atol=1e-12)
    # the +eps pushes the peak a hair above 0 dB
    assert 0.0 < d.max() < 1e-4


def test_to_db_is_monotone():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        vals = rng.uniform(0.0, 3.0, size=(8, 8))
        d = peak_db(vals, float(vals.max()), 1e-6)
        order = np.argsort(vals.ravel(), kind="stable")
        diffs = np.diff(d.ravel()[order])
        assert np.all(diffs >= 0)


def test_peak_db_writes_the_to_db_formula_in_place():
    rng = np.random.Generator(np.random.PCG64(6))
    vals = rng.uniform(0.0, 3.0, size=(9, 7))
    peak = float(vals.max())
    expected = 10.0 * np.log10((vals + 1e-6) / peak)
    np.testing.assert_array_equal(peak_db(vals, peak, 1e-6), expected)
    buf = np.full((11, 9), 7.0)
    out = peak_db(vals, peak, 1e-6, out=buf[1:-1, 1:-1])
    assert np.shares_memory(out, buf)
    np.testing.assert_array_equal(buf[1:-1, 1:-1], expected)
    assert (buf[0] == 7.0).all() and (buf[:, -1] == 7.0).all()


def test_window_raster_validation():
    taper = np.array([0.5, 1.0, 0.5])
    w = WindowRaster(taper, taper)
    assert w.values.max() == 1.0
    assert (w.height, w.width) == (3, 3)
    with pytest.raises(ValueError, match="normalized"):
        WindowRaster(np.full(2, 0.5), taper)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        WindowRaster(taper, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        WindowRaster(np.array([1.0, 1.5]), taper)


def test_window_raster_rejects_tapers_that_do_not_make_its_values():
    taper = np.array([0.5, 1.0, 0.5])
    with pytest.raises(ValueError, match="1-D"):
        WindowRaster(np.outer(taper, taper), taper)
    with pytest.raises(ValueError, match="1-D"):
        WindowRaster(taper, np.ones(0))


def test_window_raster_holds_only_its_tapers():
    row, col = np.array([0.5, 1.0, 0.25]), np.array([1.0, 0.5])
    w = WindowRaster(row, col)
    assert [f.name for f in dataclasses.fields(w)] == ["row_taper", "col_taper"]
    assert not w.row_taper.flags.writeable and not w.col_taper.flags.writeable
    np.testing.assert_array_equal(w.values, np.outer(row, col))
