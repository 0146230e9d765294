"""Raster value types: validation, immutability and amplitude conversion;
and `peak_db`, the dB formula of the retired flood kept in `oracles`."""

import dataclasses

import numpy as np
import pytest

from scatterkit.ascmodel import SeparablePsf
from scatterkit.decouple import ScatterRegion
from scatterkit.raster import AmplitudeRaster, ComplexRaster, WindowRaster, amplitude
from scatterkit.supervision import FeatureGrid, ScatterMap

from oracles import peak_db


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
    # on a strided view of a larger buffer, as the padded frame would hand it
    buf = np.full((11, 9), 7.0)
    buf[1:-1, 1:-1] = vals
    out = peak_db(buf[1:-1, 1:-1], peak, 1e-6)
    assert not np.shares_memory(out, buf)
    np.testing.assert_array_equal(out, expected)
    assert (buf[0] == 7.0).all() and (buf[:, -1] == 7.0).all()
    np.testing.assert_array_equal(buf[1:-1, 1:-1], vals)


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


def _isclose_verdict(taper: np.ndarray) -> str | None:
    """The message `WindowRaster` gave for one taper when its peak check
    was `np.isclose(taper.max(), 1.0, rtol=0, atol=1e-12)`; None if valid."""
    if np.any(taper <= 0) or np.any(taper > 1):
        return "row_taper values must lie in (0, 1]"
    if not np.isclose(taper.max(), 1.0, rtol=0, atol=1e-12):
        return "row_taper peak must be normalized to 1"
    return None


def test_window_raster_peak_check_gives_the_isclose_verdict():
    peaks = [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 2e-12, 1.0 + 2e-12,
             np.nan, np.inf, -np.inf, 0.0, np.nextafter(1.0, 2.0)]
    for edge in (1.0 - 1e-12, 1.0 + 1e-12):
        peaks += [np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)]
    tapers = [np.array([0.25, peak, 0.5]) for peak in peaks]
    tapers += [np.array([0.5, 1.0, -0.25]), np.array([0.5, 1.0, 1.0 + 1e-15]),
               np.array([0.5, 1.0, 0.0]), np.array([0.5, np.nan, 1.0])]
    verdicts = set()
    for taper in tapers:
        expected = _isclose_verdict(taper)
        verdicts.add(expected)
        if expected is None:
            WindowRaster(taper, np.ones(1))
        else:
            with pytest.raises(ValueError) as err:
                WindowRaster(taper, np.ones(1))
            assert str(err.value) == expected, taper
    assert len(verdicts) == 3  # every branch is exercised


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


def _stored_arrays(a2, z2, t1, idx, amps):
    """What each constructor that keeps a caller's array stores of it."""
    psf = SeparablePsf(t1, t1)
    region = ScatterRegion(shape=(2, 3), indices=idx, amplitudes=amps)
    return [AmplitudeRaster(a2).values, ComplexRaster(z2).samples,
            WindowRaster(t1, t1).row_taper, psf.row, psf.col,
            ScatterMap(a2).values, FeatureGrid(a2[None]).values,
            region.indices, region.amplitudes]


def test_constructors_copy_a_writable_caller_array():
    a2 = np.full((2, 3), 0.5)
    big = np.full((5, 3), 0.5)
    z2 = np.full((2, 3), 0.5 + 0.5j)
    t1 = np.array([0.5, 1.0, 0.5])
    idx, amps = np.array([1, 4]), np.array([2.0, 1.0])
    # big[1:3] is a contiguous view of a writable array: it must not alias either
    for a in (a2, big[1:3]):
        stored = _stored_arrays(a, z2, t1, idx, amps)
        for arr in (a, big, z2, t1, idx, amps):
            assert arr.flags.writeable
        for s in stored:
            assert not s.flags.writeable
            assert not any(np.may_share_memory(s, arr) for arr in (a, big, z2, t1, idx, amps))


def test_constructors_keep_a_read_only_array_without_a_copy():
    vals = np.full((2, 3), 0.5)
    vals.setflags(write=False)
    assert AmplitudeRaster(vals).values is vals
