"""CSAR container and PGM parsing: round trips and malformed-file handling."""

import contextlib
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import cli
from scatterkit.annotio import (InstanceAnnotation, parse_annotation, parse_predictions,
                                parse_truth, write_annotation, write_truth)
from scatterkit.ascmodel import Scatterer
from scatterkit.chipio import read_chip, read_text_lines, write_atomic, write_chip, write_pgm
from scatterkit.config import RunConfig, canonical_text, emit_manifest, load_config
from scatterkit.metrics import OrientedBox
from scatterkit.errors import (BadConfigField, BadDims, BadMagic, BadSamples, MalformedLine,
                               ScatterKitError, TruncatedPayload)
from scatterkit.raster import AmplitudeRaster, ComplexRaster, amplitude


def _f32_complex(rng, shape):
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return z.astype(np.complex64).astype(np.complex128)


def test_complex_round_trip_is_exact_at_f32(tmp_path):
    rng = np.random.Generator(np.random.PCG64(4))
    z = _f32_complex(rng, (5, 7))
    path = tmp_path / "chip.csar"
    write_chip(ComplexRaster(z), path)
    back = read_chip(path)
    assert isinstance(back, ComplexRaster)
    np.testing.assert_array_equal(back.samples, z)


def test_amplitude_round_trip(tmp_path):
    vals = np.arange(12, dtype=np.float64).reshape(3, 4)
    path = tmp_path / "amp.csar"
    write_chip(AmplitudeRaster(vals), path)
    back = read_chip(path)
    assert isinstance(back, AmplitudeRaster)
    np.testing.assert_array_equal(back.values, vals.astype(np.float32))


def test_file_round_trip_is_byte_identical(tmp_path):
    rng = np.random.Generator(np.random.PCG64(6))
    p1, p2 = tmp_path / "a.csar", tmp_path / "b.csar"
    write_chip(ComplexRaster(_f32_complex(rng, (8, 8))), p1)
    write_chip(read_chip(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_amplitude_commutes_with_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(7))
    z = _f32_complex(rng, (6, 6))
    path = tmp_path / "c.csar"
    write_chip(ComplexRaster(z), path)
    np.testing.assert_array_equal(
        amplitude(read_chip(path)).values, amplitude(ComplexRaster(z)).values)


def test_read_rejects_unknown_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        read_chip(path)


def _csar_header(version=1, dtype=1, reserved=0, height=2, width=2):
    return struct.pack("<4sBBHII", b"CSAR", version, dtype, reserved, height, width)


def test_read_rejects_bad_header_fields(tmp_path):
    payload = b"\x00" * 16
    cases = [
        _csar_header(version=2), _csar_header(dtype=9), _csar_header(reserved=5),
    ]
    for i, header in enumerate(cases):
        path = tmp_path / f"bad{i}.csar"
        path.write_bytes(header + payload)
        with pytest.raises(BadMagic):
            read_chip(path)
    path = tmp_path / "dims.csar"
    path.write_bytes(_csar_header(height=0) + payload)
    with pytest.raises(BadDims):
        read_chip(path)


def test_read_rejects_short_and_long_payloads(tmp_path):
    short = tmp_path / "short.csar"
    short.write_bytes(_csar_header() + b"\x00" * 8)  # needs 16
    with pytest.raises(TruncatedPayload):
        read_chip(short)
    long = tmp_path / "long.csar"
    long.write_bytes(_csar_header() + b"\x00" * 20)
    with pytest.raises(BadDims):
        read_chip(long)


def test_read_rejects_non_finite_and_negative_samples(tmp_path):
    cases = [
        (0, [0.0, np.nan, 0.0, 0.0] * 2), (0, [0.0, 0.0, np.inf, 0.0] * 2),
        (1, [1.0, -np.inf, 0.0, 2.0]), (1, [1.0, -0.5, 0.0, 2.0]),
    ]
    for i, (dtype, values) in enumerate(cases):
        path = tmp_path / f"bad{i}.csar"
        path.write_bytes(_csar_header(dtype=dtype)
                         + struct.pack(f"<{len(values)}f", *values))
        with pytest.raises(BadSamples):
            read_chip(path)


def test_pgm_8bit_read(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255]))
    r = read_chip(path)
    assert isinstance(r, AmplitudeRaster)
    np.testing.assert_array_equal(r.values, [[0, 10, 20], [30, 40, 255]])


def test_pgm_16bit_read(tmp_path):
    vals = np.array([[300, 65535], [0, 1]], dtype=">u2")
    path = tmp_path / "img16.pgm"
    path.write_bytes(b"P5 2 2 65535\n" + vals.tobytes())
    np.testing.assert_array_equal(read_chip(path).values, vals.astype(np.float64))


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(TruncatedPayload):
        read_chip(path)


def test_write_pgm_rounds_half_up(tmp_path):
    path = tmp_path / "vis.pgm"
    write_pgm(np.array([[0.0, 0.5, 1.0]]), path)
    back = read_chip(path)
    # 0.5*255 = 127.5 rounds up to 128
    np.testing.assert_array_equal(back.values, [[0, 128, 255]])


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.array([[1.5]]), tmp_path / "x.pgm")


def test_format_errors_name_the_file_and_keep_their_class(tmp_path):
    cases = [
        (BadSamples, _csar_header(dtype=0) + struct.pack("<8f", 0, np.nan, *[0] * 6)),
        (TruncatedPayload, _csar_header(dtype=0) + b"\x00" * 4),
        (BadDims, _csar_header(dtype=1) + b"\x00" * 20),
        (BadMagic, _csar_header(version=2) + b"\x00" * 16),
        (TruncatedPayload, b"P5\n2 2\n255\n" + bytes([1])),
    ]
    for i, (cls, payload) in enumerate(cases):
        path = tmp_path / f"bad_chip_{i}.csar"
        path.write_bytes(payload)
        with pytest.raises(cls) as exc:
            read_chip(path)
        assert type(exc.value) is cls
        assert str(exc.value).startswith(f"{path}: ")


def _fail_replace(src, dst):
    raise OSError("no space left on device")


def test_write_atomic_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_atomic(path, "old\n")
    write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    with pytest.raises(UnicodeEncodeError):  # raised inside the write
        write_atomic(path, "caf\u00e9\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="no space"):
        write_atomic(path, "newer\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("write", [
    lambda p: write_annotation([InstanceAnnotation(
        box=OrientedBox.from_rect(0, 0, 4, 4), class_name="tank")], p),
    lambda p: write_truth([Scatterer(1.0, 2.0, 0.5)], p),
    lambda p: write_atomic(p, canonical_text(RunConfig())),
    lambda p: emit_manifest(RunConfig(), {"total": 1.0}, p),
    lambda p: cli._write_report("report\n", str(p)),
    lambda p: write_chip(AmplitudeRaster(np.ones((2, 3))), p),
    lambda p: write_pgm(np.ones((2, 3)), p),
], ids=["annotation", "truth", "config", "manifest", "report", "chip", "pgm"])
def test_result_writers_replace_their_file_atomically(tmp_path, monkeypatch, capsys, write):
    path = tmp_path / "result.txt"
    path.write_text("previous\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write(path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.txt"]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"previous\n"


def test_a_failed_chip_write_keeps_the_old_chip(tmp_path, monkeypatch):
    path = tmp_path / "chip.csar"
    old = ComplexRaster(np.full((2, 3), 1 + 2j))
    write_chip(old, path)
    data = path.read_bytes()
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="no space"):
        write_chip(AmplitudeRaster(np.ones((4, 4))), path)
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["chip.csar"]
    np.testing.assert_array_equal(read_chip(path).samples, old.samples)


# one good line of each text format, and one bad line of it, whose error
# names its line number
_FORMATS = {
    "annotation": ("0 0 4 0 4 4 0 4 tank 0", "0 0 4", parse_annotation,
                   lambda exc: exc.line_no),
    "predictions": ("img0 0 0.9 0 0 4 0 4 4 0 4", "img0 0", parse_predictions,
                    lambda exc: exc.line_no),
    "truth": ("1 2 0.5", "1 2", parse_truth, lambda exc: exc.line_no),
    "config": ("keypoint_k = 4", "garbage", load_config,
               lambda exc: int(exc.field_path.removeprefix("line "))),
}


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_every_text_format_numbers_its_lines_by_one_rule(tmp_path, fmt):
    """The same bytes give the same line numbers in every text format:
    \\r\\n, \\n and a lone \\r end lines; \\t, \\f and \\v stay inside
    one; lines of whitespace alone are skipped but counted; the last line
    needs no newline."""
    good, bad, parse, line_no = _FORMATS[fmt]
    spaced = good.replace(" ", "\t", 1).replace(" ", "\f", 1).replace(" ", "\v", 1)
    text = f"{good}\r\n \t\f\v \r{spaced}\n\r\n\v\n{good}\r{bad}"
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("ascii"))
    assert read_text_lines(path) == [(1, good), (3, spaced), (6, good), (7, bad)]
    with pytest.raises((MalformedLine, BadConfigField)) as exc:
        parse(path)
    assert line_no(exc.value) == 7
    path.write_bytes(text.rsplit(bad, 1)[0].encode("ascii"))
    parse(path)


# Seeded mutations of valid chips: a reader may only raise its own errors (a
# ScatterKitError) or an OSError, and `annotate` exits by the README's table.

_ANNOTATION = b"4 4 19 4 19 19 4 19 ship 0\n"


def _base_chips() -> dict[str, bytes]:
    """Valid 24 x 24 chips, each with a bright 3 x 3 target at its centre."""
    rng = np.random.Generator(np.random.PCG64(91))
    amp = rng.uniform(0.0, 0.2, (24, 24))
    amp[10:13, 10:13] = 1.0
    z = (amp * np.exp(1j * rng.uniform(0.0, 2 * np.pi, amp.shape))).astype(np.complex64)
    return {
        "pgm8": b"P5\n# base\n24 24\n255\n" + np.floor(255.0 * amp).astype(np.uint8).tobytes(),
        "pgm16": b"P5 24\t24 65535\r" + np.floor(65535.0 * amp).astype(">u2").tobytes(),
        "csar-complex": _csar_header(dtype=0, height=24, width=24) + z.view("<f4").tobytes(),
        "csar-amplitude": (_csar_header(dtype=1, height=24, width=24)
                           + amp.astype("<f4").tobytes()),
    }


_CHIPS = _base_chips()
_TOKENS = [b" ", b"\n", b"\r", b"\t", b"#", b"# note\n", b"P5", b"CSAR", b"0", b"-1", b"+7",
           b"1_0", b"255", b"256", b"65535", b"65536", b"99999999999999999999", b"\x00",
           b"\xff", b"\x01", b"\x02"]
# little-endian u32 header values and float32 samples
_WORDS = [*(struct.pack("<I", v) for v in (0, 1, 12, 24, 48, 1 << 20, 2**32 - 1)),
          *(struct.pack("<f", v) for v in (np.nan, np.inf, -np.inf, -1.0, -0.0, 3e38))]


@st.composite
def _mutated_chip(draw, base: bytes) -> bytes:
    """`base` after 1 to 3 edits: a byte set, a token or a 4-byte word
    (written at a multiple of 4, where CSAR fields and samples lie) written
    over, bytes inserted, a run deleted, or the tail cut. A third of the
    edits fall in the first 24 bytes, where the headers are, a third in
    bytes 8 to 23 (past the CSAR magic, version, dtype and reserved field)
    and a third after them."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(st.sampled_from([(0, 24), (8, 24), (24, len(base))]))
        pos = min(draw(st.integers(lo, hi - 1)), max(len(data) - 1, 0))
        op = draw(st.sampled_from(["set", "token", "word", "word", "insert", "delete", "cut"]))
        if op == "set" and data:
            data[pos] = draw(st.integers(0, 255))
        elif op == "token":
            token = draw(st.sampled_from(_TOKENS))
            data[pos:pos + len(token)] = token
        elif op == "word":
            pos -= pos % 4
            data[pos:pos + 4] = draw(st.sampled_from(_WORDS))
        elif op == "insert":
            data[pos:pos] = draw(st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif op == "cut":
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def chip_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("chip_fuzz")
    for name in ("images", "annots"):
        (root / name).mkdir()
    (root / "annots" / "chip.txt").write_bytes(_ANNOTATION)
    return root


@pytest.mark.parametrize("kind", sorted(_CHIPS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_chips_raise_only_reader_errors_and_annotate_exits_by_the_table(
        chip_dataset, kind, data):
    """A mutated CSAR or PGM chip reads as a raster or raises a
    ScatterKitError (an OSError is the only other allowed escape). Through
    `annotate` it exits as the read does: 0, 3 (data error) or 2 (I/O
    error); a chip with a data error has its annotation copied unchanged,
    and no traceback reaches stderr."""
    suffix = ".pgm" if kind.startswith("pgm") else ".csar"
    for old in (chip_dataset / "images").iterdir():
        old.unlink()
    path = chip_dataset / "images" / f"chip{suffix}"
    path.write_bytes(data.draw(_mutated_chip(_CHIPS[kind])))
    try:
        raster = read_chip(path)
        expected = 0
    except (ScatterKitError, OSError) as exc:
        expected = 3 if isinstance(exc, ScatterKitError) else 2
    else:
        assert isinstance(raster, (ComplexRaster, AmplitudeRaster))
    out = chip_dataset / "out"
    (out / "chip.txt").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["annotate", "--images", str(chip_dataset / "images"),
                         "--annots", str(chip_dataset / "annots"), "--out", str(out),
                         "--seed", "0"])
    assert code == expected
    assert "Traceback" not in err.getvalue()
    assert ("data error" in err.getvalue()) == (expected == 3)
    if expected == 3:
        assert (out / "chip.txt").read_bytes() == _ANNOTATION
