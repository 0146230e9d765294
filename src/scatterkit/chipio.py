"""Chip container I/O.

CSAR container layout (little-endian, no padding):

    magic    4 bytes  b"CSAR"
    version  u8       1
    dtype    u8       0 = complex (interleaved re,im float32), 1 = amplitude (float32)
    reserved u16      0
    height   u32
    width    u32
    payload  row-major float32 samples

Samples are float32 on disk and promoted to float64/complex128 in memory, so
file -> raster -> file round trips are byte-identical. Binary PGM (P5, 8- or
16-bit) is accepted as an amplitude-only input format.

`read_text_lines` reads every text input; `write_atomic` writes every result.
"""

from __future__ import annotations

import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import (BadDims, BadMagic, BadSamples, ChipFormatError,
                     TruncatedPayload)
from .raster import AmplitudeRaster, ComplexRaster, _unchecked

MAGIC = b"CSAR"
VERSION = 1
DTYPE_COMPLEX = 0
DTYPE_AMPLITUDE = 1
_HEADER = struct.Struct("<4sBBHII")

# Guard against absurd headers before allocating payload buffers.
MAX_DIM = 1 << 20


def read_text_lines(path: str | Path) -> list[tuple[int, str]]:
    """The numbered non-blank lines of the ASCII text file at `path`.

    The file is read once, so a pipe or FIFO reads as a regular file does.
    Lines end at universal newlines (\\n, \\r\\n, \\r) alone. A non-ASCII
    byte raises UnicodeDecodeError, its position counted from the file's start.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(line_no, line) for line_no, line in enumerate(lines, start=1) if line.strip()]


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace `path` with bytes or ASCII text in one step, or leave it as it was.

    The data goes to a temporary file in the same directory, which then
    replaces `path` by `os.replace`; a write that fails removes its
    temporary file, so readers see the old file or the new one, never a
    part. The data is not fsynced, so this guards against failed writes
    and crashes of the process, not of the machine.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_chip(raster: ComplexRaster | AmplitudeRaster, path: str | Path) -> None:
    """Serialize a raster to a CSAR container (complex -> interleaved f32).
    A value beyond float32's range, which would be written as an Inf that
    `read_chip` rejects, raises BadSamples naming `path`; nothing is written."""
    with np.errstate(over="ignore"):  # such a value is refused below
        if isinstance(raster, ComplexRaster):
            dtype = DTYPE_COMPLEX
            payload = raster.samples.astype(np.complex64).view(np.float32)
        elif isinstance(raster, AmplitudeRaster):
            dtype = DTYPE_AMPLITUDE
            payload = raster.values.astype(np.float32)
        else:
            raise TypeError(f"cannot serialize {type(raster).__name__}")
    if not np.isfinite(payload).all():
        raise BadSamples(f"{path}: a sample lies beyond float32's range (nothing written)")
    header = _HEADER.pack(MAGIC, VERSION, dtype, 0, raster.height, raster.width)
    write_atomic(path, header + payload.astype("<f4").tobytes())


def read_chip(path: str | Path) -> ComplexRaster | AmplitudeRaster:
    """Parse a CSAR container or a binary PGM into a raster.

    Every format error names the file: it is re-raised in its own class with
    the path as prefix.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        if data[:4] == MAGIC:
            return _parse_csar(data)
        if data[:2] == b"P5":
            return _parse_pgm(data)
    except ChipFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    raise BadMagic(f"{path}: unrecognized magic {data[:4]!r}")


def _parse_csar(data: bytes) -> ComplexRaster | AmplitudeRaster:
    if len(data) < _HEADER.size:
        raise TruncatedPayload(f"file shorter than header ({len(data)} bytes)")
    magic, version, dtype, reserved, height, width = _HEADER.unpack_from(data)
    if version != VERSION:
        raise BadMagic(f"unsupported container version {version}")
    if dtype not in (DTYPE_COMPLEX, DTYPE_AMPLITUDE):
        raise BadMagic(f"unknown dtype code {dtype}")
    if reserved != 0:
        raise BadMagic(f"reserved field must be 0, got {reserved}")
    if height < 1 or width < 1 or height > MAX_DIM or width > MAX_DIM:
        raise BadDims(f"bad dimensions {height}x{width}")
    n_floats = height * width * (2 if dtype == DTYPE_COMPLEX else 1)
    expected = _HEADER.size + 4 * n_floats
    if len(data) < expected:
        raise TruncatedPayload(f"expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise BadDims(f"{len(data) - expected} trailing bytes after payload")
    flat = np.frombuffer(data, dtype="<f4", count=n_floats, offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise BadSamples("payload holds NaN/Inf samples")
    if dtype == DTYPE_COMPLEX:
        # the one full-size copy and, above, the one check: finite float32
        # samples widen to finite complex128 exactly
        return _unchecked(ComplexRaster, samples=flat.view("<c8").reshape(
            height, width).astype(np.complex128))
    if (flat < 0).any():
        raise BadSamples("amplitude payload holds negative samples")
    return AmplitudeRaster(flat.reshape(height, width))


def _parse_pgm(data: bytes) -> AmplitudeRaster:
    """Binary PGM (P5), 8-bit or 16-bit big-endian per the netpbm convention."""
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise TruncatedPayload("PGM header ends inside a comment")
            pos = eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedPayload("PGM header truncated")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(v) for v in fields)
    except ValueError as exc:
        raise BadDims(f"non-numeric PGM header field: {exc}") from None
    if width < 1 or height < 1:
        raise BadDims(f"bad PGM dimensions {height}x{width}")
    if not 0 < maxval < 65536:
        raise BadDims(f"bad PGM maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    n = height * width
    if len(data) - pos < n * dtype.itemsize:
        raise TruncatedPayload("PGM payload shorter than declared raster")
    values = np.frombuffer(data, dtype=dtype, count=n, offset=pos)
    return AmplitudeRaster(values.reshape(height, width))


def write_pgm(values01: np.ndarray, path: str | Path) -> None:
    """Write an array of values in [0,1] as an 8-bit PGM (value*255, round half up)."""
    arr = np.asarray(values01, dtype=np.float64)
    if arr.ndim != 2:
        raise BadDims("PGM writer expects a 2-D array")
    if not (arr.min() >= 0 and arr.max() <= 1):  # NaN fails both
        raise ValueError("PGM visualization expects values in [0, 1]")
    gray = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    h, w = gray.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())
