"""Raster value types: validation, immutability, amplitude and dB conversion."""

import numpy as np
import pytest

from scatterkit.errors import AllZeroRaster
from scatterkit.raster import (AmplitudeRaster, ComplexRaster, DbRaster,
                               WindowRaster, amplitude, peak_db, to_db)


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
    d = to_db(AmplitudeRaster(vals), eps=eps)
    expected = 10.0 * np.log10((vals + eps) / 4.0)
    np.testing.assert_allclose(d.values, expected, rtol=0, atol=1e-12)
    # the +eps pushes the peak a hair above 0 dB but never past the tolerance
    assert 0.0 < d.values.max() < 1e-4


def test_to_db_is_monotone():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(25):
        vals = rng.uniform(0.0, 3.0, size=(8, 8))
        d = to_db(AmplitudeRaster(vals)).values
        order = np.argsort(vals.ravel(), kind="stable")
        diffs = np.diff(d.ravel()[order])
        assert np.all(diffs >= 0)


def test_to_db_rejects_all_zero_and_bad_eps():
    with pytest.raises(AllZeroRaster):
        to_db(AmplitudeRaster(np.zeros((4, 4))))
    with pytest.raises(ValueError):
        to_db(AmplitudeRaster(np.ones((2, 2))), eps=0.0)


def test_peak_db_writes_the_to_db_formula_in_place():
    rng = np.random.Generator(np.random.PCG64(6))
    vals = rng.uniform(0.0, 3.0, size=(9, 7))
    peak = float(vals.max())
    expected = 10.0 * np.log10((vals + 1e-6) / peak)
    np.testing.assert_array_equal(to_db(AmplitudeRaster(vals)).values, expected)
    buf = np.full((11, 9), 7.0)
    out = peak_db(vals, peak, 1e-6, out=buf[1:-1, 1:-1])
    assert np.shares_memory(out, buf)
    np.testing.assert_array_equal(buf[1:-1, 1:-1], expected)
    assert (buf[0] == 7.0).all() and (buf[:, -1] == 7.0).all()


def test_db_raster_rejects_positive_peak():
    with pytest.raises(ValueError):
        DbRaster(np.array([[0.5, -3.0]]))


def test_window_raster_validation():
    taper = np.array([0.5, 1.0, 0.5])
    w = WindowRaster(np.outer(taper, taper), row_taper=taper, col_taper=taper)
    assert w.values.max() == 1.0
    with pytest.raises(ValueError):
        WindowRaster(np.full((2, 2), 0.5), row_taper=taper, col_taper=taper)
    with pytest.raises(ValueError):
        WindowRaster(np.array([[0.0, 1.0]]), row_taper=taper, col_taper=taper)


def test_window_raster_rejects_tapers_that_do_not_make_its_values():
    taper = np.array([0.5, 1.0, 0.5])
    values = np.outer(taper, taper)
    with pytest.raises(ValueError, match="outer"):
        WindowRaster(values, row_taper=taper, col_taper=np.array([0.5, 1.0, 0.25]))
    with pytest.raises(ValueError, match="do not match"):
        WindowRaster(values, row_taper=taper, col_taper=np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="1-D"):
        WindowRaster(values, row_taper=values, col_taper=taper)
