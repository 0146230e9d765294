"""Annotation text formats, cropping, dataset indexing, annotation runs."""

import contextlib
import dataclasses
import importlib.util
import io
import itertools
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import annotio, ascmodel, spectral
from scatterkit.annotio import (DatasetIndex, InstanceAnnotation, crop_chip,
                                format_annotation, index_dataset,
                                parse_annotation, parse_predictions,
                                parse_truth, run_dog, run_skaa, skaa_keypoints,
                                write_annotation, write_truth)
from scatterkit.ascmodel import FrequencyGrid, Scatterer, synth_target
from scatterkit.chipio import read_chip, write_chip
from scatterkit.cli import main
from scatterkit.decouple import DecoupleParams, ScatterRegion
from scatterkit.errors import (BadKeypointCount, BoxOutsideImage, DuplicateStem,
                               InvalidWindowParams, MalformedLine, OutOfBounds,
                               ScatterKitError)
from scatterkit.keypoints import DogParams, KeypointSet, instance_seed, to_global
from scatterkit.metrics import OrientedBox
from scatterkit.raster import AmplitudeRaster, ComplexRaster, amplitude
from scatterkit.spectral import taylor_window_2d

from oracles import _ascii_lines, parse_annotation_per_line, parse_predictions_per_line
from test_metrics import _float_bits

# the package's `decouple` attribute is the function, not its module
decouple_module = importlib.import_module("scatterkit.decouple")

BOX_LINE = "0 0 4 0 4 4 0 4 tank 0"


def test_parse_minimal_line(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text(BOX_LINE + "\n")
    (ann,), = [parse_annotation(p)]
    assert ann.class_name == "tank"
    assert ann.difficulty == 0
    assert ann.keypoints is None
    np.testing.assert_array_equal(ann.box.corners,
                                  [[0, 0], [4, 0], [4, 4], [0, 4]])


def test_parse_line_with_nine_keypoints(tmp_path):
    coords = " ".join(f"{v}.5 {v}.5" for v in range(1, 10))
    p = tmp_path / "a.txt"
    p.write_text("0 0 20 0 20 20 0 20 ship 1 kp " + coords + "\n")
    (ann,) = parse_annotation(p)
    assert ann.difficulty == 1
    assert ann.keypoints.k == 9
    assert ann.keypoints.points[0] == (1.5, 1.5)
    assert ann.keypoints.points[-1] == (9.5, 9.5)


def test_parse_odd_keypoint_count_rejected(tmp_path):
    coords = " ".join(str(v) for v in range(17))
    p = tmp_path / "a.txt"
    p.write_text("0 0 20 0 20 20 0 20 ship 0 kp " + coords + "\n")
    with pytest.raises(BadKeypointCount) as exc:
        parse_annotation(p)
    assert exc.value.line_no == 1
    assert str(exc.value) == "line 1: keypoint list must hold 2k numbers, got 17"
    assert isinstance(exc.value, MalformedLine)


def test_parse_empty_keypoint_list_rejected(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 0 20 0 20 20 0 20 ship 0 kp\n")
    with pytest.raises(BadKeypointCount):
        parse_annotation(p)


def test_parse_unknown_trailing_token_rejected(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 0 20 0 20 20 0 20 ship 0 xp 1 2\n")
    with pytest.raises(MalformedLine) as exc:
        parse_annotation(p)
    assert "xp" in str(exc.value)


def test_parse_reports_one_based_line_numbers(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text(BOX_LINE + "\n\n" + "0 0 4 0 4 4 0 4 tank nope\n")
    with pytest.raises(MalformedLine) as exc:
        parse_annotation(p)
    assert exc.value.line_no == 3
    assert str(exc.value).startswith("line 3:")


def test_parse_rejects_bad_tokens(tmp_path):
    p = tmp_path / "a.txt"
    for bad in ("0 0 4 0 4 4 0 tank 0",          # 9 tokens
                "0 0 4 0 4 4 0 spam tank 0",     # corner not a float
                "0 0 4 0 4 4 0 4 tank 2",        # difficulty out of range
                "0 0 0 0 0 0 0 0 tank 0"):       # degenerate box
        p.write_text(bad + "\n")
        with pytest.raises(MalformedLine):
            parse_annotation(p)


def test_parse_rejects_non_ascii(tmp_path):
    p = tmp_path / "a.txt"
    p.write_bytes("0 0 4 0 4 4 0 4 tank 0 \xff\n".encode("latin-1"))
    with pytest.raises(MalformedLine):
        parse_annotation(p)


def test_parse_keypoint_far_outside_box_rejected(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 0 4 0 4 4 0 4 tank 0 kp 50 50\n")
    with pytest.raises(MalformedLine):
        parse_annotation(p)


def test_annotation_round_trip_exact(tmp_path):
    annots = [
        InstanceAnnotation(
            box=OrientedBox.from_rect(1.25, 2.5, 21.25, 30.5),
            class_name="tank", difficulty=0,
            keypoints=KeypointSet(points=((3.5, 4.25), (10.0, 11.0)))),
        InstanceAnnotation(
            box=OrientedBox.from_rect(5.0, 5.0, 9.0, 9.0),
            class_name="ship", difficulty=1),
    ]
    path = tmp_path / "round.txt"
    write_annotation(annots, path)
    back = parse_annotation(path)
    assert len(back) == 2
    np.testing.assert_array_equal(back[0].box.corners, annots[0].box.corners)
    assert back[0].keypoints.points == annots[0].keypoints.points
    assert back[1].keypoints is None
    assert format_annotation(back) == format_annotation(annots)


def test_annotation_formats_six_significant_digits():
    ann = InstanceAnnotation(
        box=OrientedBox.from_rect(0.123456789, 0, 10, 10), class_name="t")
    assert "0.123457" in format_annotation([ann])


def test_truth_round_trip(tmp_path):
    truths = [Scatterer(1.5, 2.25, 0.75), Scatterer(10.0, 20.0, 1.0)]
    path = tmp_path / "truth.txt"
    write_truth(truths, path)
    assert parse_truth(path) == truths
    path.write_text("1 2\n")
    with pytest.raises(MalformedLine):
        parse_truth(path)


def test_parse_predictions(tmp_path):
    p = tmp_path / "preds.txt"
    p.write_text(
        "img0 0 0.9 0 0 4 0 4 4 0 4\n"
        "img1 1 0.5 10 10 14 10 14 14 10 14\n"
        "img0 0 0.4 1 1 5 1 5 5 1 5\n")
    preds = parse_predictions(p)
    assert sorted(preds) == ["img0", "img1"]
    assert [d.score for d in preds["img0"]] == [0.9, 0.4]
    assert preds["img1"][0].class_id == 1
    p.write_text("img0 0 0.9 0 0 4 0 4 4 0\n")  # 10 tokens
    with pytest.raises(MalformedLine):
        parse_predictions(p)
    p.write_text("img0 0 1.9 0 0 4 0 4 4 0 4\n")  # score out of range
    with pytest.raises(MalformedLine):
        parse_predictions(p)


# --------------------------------------------- parsers vs per-line oracles

def _box_fields(box):
    return (box.corners.tobytes(), box.ccw_corners().tobytes(),
            *(_float_bits(box.__dict__[name])
              for name in ("_area", "_centroid", "_ccw_pts", "_reach")))


def _annotation_fields(a):
    kps = None if a.keypoints is None else _float_bits(a.keypoints.points)
    return a.class_name, a.difficulty, kps, _box_fields(a.box)


def _prediction_fields(preds):
    return [(img, [(d.class_id, _float_bits(d.score), _box_fields(d.box)) for d in ds])
            for img, ds in preds.items()]


def _outcome(parse, path, fields):
    """The parsed file's fields, or the class, message and line of its
    error; any other exception escapes."""
    try:
        return fields(parse(path))
    except (ScatterKitError, OSError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


# spellings a column conversion could read differently from `float()` and
# `int()`: digit groups, signs and case, subnormals and their rounding,
# overflow, and hexadecimal
_SPELLINGS = ["1_0", "1__0", "_1", "-nan", "Infinity", "+.5e-3", "4.9e-324",
              "2.4703282292062327e-324", "1e400", "0x1p3"]


@st.composite
def _corner_tokens(draw):
    """A line's 8 corner tokens, mostly of a good rotated box, else of a
    bowtie, a dart, a zero-area or collinear box, or with a NaN, infinite,
    non-numeric or signed-zero token."""
    cx, cy = draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 200.0))
    w, h = draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0))
    c, s = np.cos(draw(st.floats(0.0, 3.2))), np.sin(draw(st.floats(0.0, 3.2)))
    half = np.array([[-w, -h], [w, -h], [w, h], [-w, h]]) / 2.0
    corners = half @ np.array([[c, s], [-s, c]]) + [cx, cy]
    kind = draw(st.sampled_from(["good"] * 12 + ["bowtie", "dart", "point", "line", "token",
                                                   "zeros"]))
    if kind == "bowtie":
        corners = corners[[0, 2, 1, 3]]
    elif kind == "dart":  # corner 2 pulled in past the centre: one reflex corner
        corners[2] = [cx, cy] + 0.3 * ([cx, cy] - corners[2])
    elif kind == "point":
        corners = np.repeat(corners[:1], 4, axis=0)
    elif kind == "line":
        corners = corners[0] + np.outer([0.0, 1.0, 2.0, 3.0], corners[1] - corners[0])
    elif kind == "zeros":
        return draw(st.sampled_from(["0 -0 4 0 4 4 -0 4", "-0 -0 -0 3 -2 3 -2 -0",
                                     "0 0 -0 -0 1 1 0 1"])).split()
    fmt = draw(st.sampled_from(["{:.6g}", "{!r}"]))
    tokens = [fmt.format(float(v)) for v in corners.ravel()]
    if kind == "token":
        tokens[draw(st.integers(0, 7))] = draw(st.sampled_from(
            ["nan", "inf", "-inf", "abc", "1e", "--1", "1e999"] + _SPELLINGS))
    return tokens


@st.composite
def _annotation_line(draw):
    corners = draw(_corner_tokens())
    try:
        xs, ys = [float(t) for t in corners[0::2]], [float(t) for t in corners[1::2]]
    except ValueError:
        xs = ys = [0.0]
    if not np.isfinite(xs + ys).all():
        xs = ys = [0.0]
    tail = [draw(st.sampled_from(["ship", "plane"])),
            draw(st.sampled_from(["0"] * 8 + ["1"] * 4 + ["2", "x", "-1"]))]
    kp = draw(st.sampled_from(["none"] * 6 + ["good"] * 6 + ["far", "odd", "empty", "nan",
                                                             "word", "trailing", "spelled"]))
    if kp in ("good", "far", "spelled"):
        k = draw(st.integers(1, 4))
        pad = 10.0 if kp == "far" else 0.0
        for _ in range(k):
            tail += [repr(draw(st.floats(min(xs), max(xs))) + pad),
                     repr(draw(st.floats(min(ys), max(ys))))]
        if kp == "spelled":
            tail[draw(st.integers(2, len(tail) - 1))] = draw(st.sampled_from(_SPELLINGS))
        tail.insert(2, "kp")
    elif kp != "none":
        tail += {"odd": ["kp", "1", "2", "3"], "empty": ["kp"], "nan": ["kp", "1", "nan"],
                 "word": ["kp", "1", "y"], "trailing": ["zz", "1"]}[kp]
    tokens = corners + tail
    if draw(st.integers(0, 29)) == 0:  # a bad token count
        tokens = tokens[:draw(st.integers(0, 9))]
    return " ".join(tokens)


@st.composite
def _prediction_line(draw):
    tokens = [draw(st.sampled_from(["img_a", "img_b", "img_c"])),
              draw(st.sampled_from(["0"] * 8 + ["2"] * 4 + ["1.5", "z"] + _SPELLINGS)),
              draw(st.sampled_from(["0.9", "0.05", "1", "0", "-0"] * 4
                                   + ["1.5", "-0.1", "nan", "inf", "s"] + _SPELLINGS))]
    tokens += draw(_corner_tokens())
    if draw(st.integers(0, 29)) == 0:  # a bad token count
        tokens = tokens[:draw(st.integers(0, 10))] if draw(st.booleans()) else tokens + ["7"]
    return " ".join(tokens)


def _file_text(draw, line):
    lines = draw(st.lists(st.one_of(line, st.just("")), max_size=10))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_annotation_equals_the_per_line_parser(tmp_path_factory, data):
    """The same annotations, field for field and bit for bit, or the same
    error class, line and message, as the retired per-line parser."""
    path = tmp_path_factory.getbasetemp() / "hypothesis_annotation.txt"
    path.write_text(_file_text(data.draw, _annotation_line()))
    fields = lambda annots: [_annotation_fields(a) for a in annots]  # noqa: E731
    assert _outcome(parse_annotation, path, fields) == \
        _outcome(parse_annotation_per_line, path, fields)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_predictions_equals_the_per_line_parser(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "hypothesis_predictions.txt"
    path.write_text(_file_text(data.draw, _prediction_line()))
    assert _outcome(parse_predictions, path, _prediction_fields) == \
        _outcome(parse_predictions_per_line, path, _prediction_fields)


def test_parsers_equal_the_per_line_parsers_on_long_good_files(tmp_path):
    """120 good lines of each format, rotated boxes from 1e-3 to 1e4 px
    with keypoints: the same fields, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(81))
    ann_lines, pred_lines = [], []
    for i in range(120):
        size = 10.0 ** rng.uniform(-3.0, 4.0)
        c, s = np.cos(rng.uniform(0.0, np.pi)), np.sin(rng.uniform(0.0, np.pi))
        half = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) \
            * size * rng.uniform(0.2, 1.0, 2)
        corners = half @ np.array([[c, s], [-s, c]]) + size * rng.uniform(-3.0, 3.0, 2)
        nums = " ".join(repr(float(v)) if i % 2 else f"{v:.6g}" for v in corners.ravel())
        kps = " ".join(repr(float(v)) for v in
                       (corners.mean(axis=0) + rng.uniform(-0.1, 0.1, (3, 2)) * size).ravel())
        ann_lines.append(f"{nums} ship {i % 2} kp {kps}" if i % 3 else f"{nums} tank 0")
        pred_lines.append(f"img_{i % 4} {i % 3} {rng.uniform():.6g} {nums}")
    annots, preds = tmp_path / "a.txt", tmp_path / "p.txt"
    annots.write_text("\n".join(ann_lines) + "\n")
    preds.write_text("\n\n".join(pred_lines) + "\n")
    got = [_annotation_fields(a) for a in parse_annotation(annots)]
    assert len(got) == 120
    assert got == [_annotation_fields(a) for a in parse_annotation_per_line(annots)]
    assert _prediction_fields(parse_predictions(preds)) == \
        _prediction_fields(parse_predictions_per_line(preds))


@pytest.mark.parametrize("text", ["", "\n", "\n  \n\t\n"], ids=["empty", "newline", "blank"])
def test_parsers_read_an_empty_file_as_no_records(tmp_path, text):
    p = tmp_path / "a.txt"
    p.write_text(text)
    assert parse_annotation(p) == parse_annotation_per_line(p) == []
    assert parse_predictions(p) == parse_predictions_per_line(p) == {}


@pytest.mark.parametrize("parse", [parse_annotation, parse_annotation_per_line])
def test_parse_reports_the_first_bad_line_whichever_check_it_fails(tmp_path, parse):
    p = tmp_path / "a.txt"
    bowtie = "0 0 4 4 4 0 0 5 tank 0"
    p.write_text(f"{BOX_LINE}\n{bowtie}\n{BOX_LINE}\n0 0 4\n")
    with pytest.raises(MalformedLine, match="^line 2: corners do not form"):
        parse(p)
    p.write_text(f"{BOX_LINE}\n0 0 4\n{bowtie}\n")
    with pytest.raises(MalformedLine, match="^line 2: expected >= 10 tokens"):
        parse(p)
    p.write_text(f"{BOX_LINE}\n0 0 4 0 4 4 0 4 tank 0 kp 9 9\n{bowtie}\n\xe9\n",
                 encoding="latin-1")
    with pytest.raises(MalformedLine, match="^line 0: not ascii text"):
        parse(p)
    p.write_text(f"{BOX_LINE}\n0 0 4 0 4 4 0 4 tank 0 kp 9 9\n{bowtie}\n")
    with pytest.raises(MalformedLine, match="^line 2: keypoint"):
        parse(p)
    # one line breaking several rules reports the first its constructors check
    for line, message in [("0 0 4 4 4 0 0 5 tank 2 kp nan 1", "keypoints must be finite"),
                          ("0 0 4 4 4 0 0 5 tank 2", "corners do not form"),
                          ("0 0 4 0 4 4 0 4 tank 2 kp 9 9", "difficulty must be 0 or 1")]:
        p.write_text(f"{BOX_LINE}\n{line}\n{BOX_LINE} kp 99 1\n")
        with pytest.raises(MalformedLine, match=f"^line 2: {message}"):
            parse(p)
    with pytest.raises(FileNotFoundError):
        parse(tmp_path / "missing.txt")


@pytest.mark.parametrize("parse", [parse_predictions, parse_predictions_per_line])
def test_parse_predictions_reports_the_first_bad_line_whichever_check_it_fails(tmp_path,
                                                                               parse):
    p = tmp_path / "p.txt"
    good, bowtie = "img0 0 0.9 0 0 4 0 4 4 0 4", "img0 0 0.9 0 0 4 4 4 0 0 5"
    p.write_text(f"{good}\n{bowtie}\nimg0 0 0.9\n")
    with pytest.raises(MalformedLine, match="^line 2: corners do not form"):
        parse(p)
    p.write_text(f"{good}\nimg0 0 1.5 0 0 4 0 4 4 0 4\n{bowtie}\n")
    with pytest.raises(MalformedLine, match="^line 2: score must lie in"):
        parse(p)
    # one line breaking several rules reports the first its constructors check
    for line, message in [("img0 z s 0 0 4 0 4 4 0 4", "invalid literal for int"),
                          ("img0 0 1.5 0 0 4 4 4 0 0 5", "corners do not form")]:
        p.write_text(f"{good}\n{line}\nimg0 0 0.9\n")
        with pytest.raises(MalformedLine, match=f"^line 2: {message}"):
            parse(p)


@pytest.mark.parametrize("parse, good, short", [
    (parse_annotation, BOX_LINE, "0 0 4"),
    (parse_predictions, "img0 0 0.9 0 0 4 0 4 4 0 4", "img0 0 0.9"),
    (parse_truth, "1 2 0.5", "1 2"),
], ids=["annotation", "predictions", "truth"])
def test_a_non_ascii_byte_is_line_0_at_any_file_size(tmp_path, parse, good, short):
    """A non-ASCII byte on the last line of a file whose line 2 is bad is
    the whole file's error, line 0, at its byte position from the start of
    the file, whether the file is under or over 8 KiB. The retired reader
    decoded 8 KiB at a time, so past that size it met line 2 first."""
    p = tmp_path / "records.txt"
    for n_good in (1, 1500):
        data = "\n".join([good, short] + [good] * n_good + [good + " \xe9"]).encode("latin-1")
        p.write_bytes(data + b"\n")
        pos = data.index(b"\xe9")
        with pytest.raises(MalformedLine) as exc:
            parse(p)
        assert exc.value.line_no == 0
        assert str(exc.value) == ("line 0: not ascii text: 'ascii' codec can't decode byte "
                                  f"0xe9 in position {pos}: ordinal not in range(128)")
    assert len(data) > 8192
    assert list(itertools.islice(_ascii_lines(p), 2)) == [(1, good), (2, short)]


@st.composite
def _truth_file(draw):
    """The bytes of a truth sidecar: good ``x y amplitude`` lines, some with
    a bad token count, a non-finite, negative or non-numeric value, a
    non-ASCII byte, a \\r, \\f or \\v, or a comment; joined by \\n, \\r\\n
    or \\r."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = [draw(st.sampled_from(["1", "2.5", "0", "-0", "1e3", "120.25", "-3"]))
                  for _ in range(2)] + [draw(st.sampled_from(["0.5", "1", "0", "-0", "7e2"]))]
        kind = draw(st.sampled_from(["good"] * 6 + ["count", "value", "byte", "space",
                                                    "comment", "blank"]))
        if kind == "count":
            tokens = tokens[:draw(st.integers(0, 2))] if draw(st.booleans()) else tokens + ["4"]
        elif kind == "value":
            tokens[draw(st.integers(0, 2))] = draw(st.sampled_from(
                ["nan", "inf", "-inf", "1e999", "-0.5", "-1e-300", "abc", "1e", "0x10", "--1"]))
        elif kind == "comment":
            tokens = draw(st.sampled_from([["#", *tokens], [*tokens, "#", "note"], ["#"]]))
        line = " ".join(tokens).encode("ascii")
        if kind == "byte":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from([b"\xe9", b"\x80", b"\xff"])) + line[at:]
        elif kind == "space":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from([b"\r", b"\f", b"\v", b"\t"])) + line[at:]
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b" ", b"\t\f\v"]))
        lines.append(line)
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else b"")


@pytest.fixture(scope="module")
def keypoint_runs(tmp_path_factory):
    """Two annotation directories holding one keypoint file, `chip.txt`."""
    root = tmp_path_factory.mktemp("keypoint_runs")
    for name in ("a", "b"):
        (root / name).mkdir()
        (root / name / "chip.txt").write_text(f"{BOX_LINE} kp 1 1 3 3\n")
    return root


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_truth_reader_raises_only_its_errors_and_main_exits_by_the_table(
        keypoint_runs, data):
    """A fuzzed truth sidecar parses or raises a ScatterKitError (an
    OSError is the only other allowed escape). Through `eval
    --keypoint-compare`, it exits 0 or 3 (data error) as the parse does,
    and no traceback reaches stderr."""
    truth = keypoint_runs / "truth"
    truth.mkdir(exist_ok=True)
    path = truth / "chip.txt"
    text = data.draw(_truth_file())
    path.write_bytes(text)
    n_lines = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
    try:
        scatterers = parse_truth(path)
        expected = 0
    except ScatterKitError as exc:
        expected = 3
        assert isinstance(exc, MalformedLine)
        if text.isascii():
            assert 1 <= exc.line_no <= n_lines
        else:
            assert exc.line_no == 0
    else:
        assert all(isinstance(s, Scatterer) for s in scatterers)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--keypoint-compare", "--annots-a", str(keypoint_runs / "a"),
                     "--annots-b", str(keypoint_runs / "b"), "--truth", str(truth)])
    assert code == expected
    assert "Traceback" not in err.getvalue()
    assert ("data error" in err.getvalue()) == (expected == 3)


def _image64():
    rng = np.random.Generator(np.random.PCG64(80))
    return ComplexRaster(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))


def test_crop_axis_aligned_box():
    img = _image64()
    chip, origin = crop_chip(img, OrientedBox.from_rect(10, 20, 30, 40))
    assert origin == (10, 20)
    assert (chip.height, chip.width) == (20, 20)
    np.testing.assert_array_equal(chip.samples, img.samples[20:40, 10:30])


def test_crop_rotated_box_covers_aabb():
    img = _image64()
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    half = np.array([[-8, -8], [8, -8], [8, 8], [-8, 8]], dtype=float)
    corners = half @ np.array([[c, s], [-s, c]]) + [32, 32]
    chip, origin = crop_chip(img, OrientedBox(corners))
    x0, y0 = origin
    assert x0 == int(np.floor(corners[:, 0].min()))
    assert y0 == int(np.floor(corners[:, 1].min()))
    assert chip.width == int(np.ceil(corners[:, 0].max())) - x0
    np.testing.assert_array_equal(
        chip.samples, img.samples[y0:y0 + chip.height, x0:x0 + chip.width])


def test_crop_clamps_partial_overlap():
    img = _image64()
    chip, origin = crop_chip(img, OrientedBox.from_rect(-10, -5, 10, 15))
    assert origin == (0, 0)
    assert (chip.height, chip.width) == (15, 10)


def test_crop_rejects_box_outside_image():
    img = _image64()
    with pytest.raises(BoxOutsideImage):
        crop_chip(img, OrientedBox.from_rect(100, 100, 120, 120))
    with pytest.raises(BoxOutsideImage):
        crop_chip(img, OrientedBox.from_rect(-20, -20, -5, -5))


def _crop_by_corner_reductions(image, box):
    """`crop_chip`'s origin and window, or its error message, from numpy
    reductions over the corner array."""
    c = box.corners
    x0 = max(int(np.floor(c[:, 0].min())), 0)
    y0 = max(int(np.floor(c[:, 1].min())), 0)
    x1 = min(int(np.ceil(c[:, 0].max())), image.width)
    y1 = min(int(np.ceil(c[:, 1].max())), image.height)
    if x1 <= x0 or y1 <= y0:
        return (f"box AABB [{c[:, 0].min():.6g}, {c[:, 0].max():.6g}]x"
                f"[{c[:, 1].min():.6g}, {c[:, 1].max():.6g}] misses the "
                f"{image.width}x{image.height} image")
    return (x0, y0), image.samples[y0:y1, x0:x1]


def test_crop_and_keypoint_check_read_the_box_bounds_as_the_corners_give_them():
    img = _image64()
    rng = np.random.Generator(np.random.PCG64(41))
    n_outside = 0
    for _ in range(300):
        center = rng.uniform(-40.0, 104.0, size=2)
        half = rng.uniform(0.5, 30.0, size=2)
        theta = rng.uniform(0.0, np.pi)
        u, v = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
        box = OrientedBox(np.array([center + s * half[0] * u + t * half[1] * v
                                    for s, t in [(1, 1), (-1, 1), (-1, -1), (1, -1)]]))
        c = box.corners
        assert box.bounds == (c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max())
        ref = _crop_by_corner_reductions(img, box)
        if isinstance(ref, str):
            n_outside += 1
            with pytest.raises(BoxOutsideImage) as exc:
                crop_chip(img, box)
            assert str(exc.value) == ref
        else:
            chip, origin = crop_chip(img, box)
            assert origin == ref[0] and np.array_equal(chip.samples, ref[1])
        # a keypoint 2 px beyond the bounds is kept, one further is rejected
        x_far = float(c[:, 0].max()) + 2.0
        InstanceAnnotation(box=box, class_name="t",
                           keypoints=KeypointSet(((x_far, float(c[0, 1])),)))
        x_out = float(c[:, 0].min()) - 2.5
        with pytest.raises(OutOfBounds) as exc:
            InstanceAnnotation(box=box, class_name="t",
                               keypoints=KeypointSet(((x_out, float(c[0, 1])),)))
        x0, y0 = c[:, 0].min() - 2.0, c[:, 1].min() - 2.0
        x1, y1 = c[:, 0].max() + 2.0, c[:, 1].max() + 2.0
        assert str(exc.value) == (f"keypoint ({x_out}, {float(c[0, 1])}) outside box AABB "
                                  f"[{x0}, {x1}]x[{y0}, {y1}]")
    assert 30 <= n_outside <= 270


def test_index_dataset_pairs_and_validates(tmp_path):
    images = tmp_path / "images"
    annots = tmp_path / "annots"
    images.mkdir()
    annots.mkdir()
    write_chip(_image64(), images / "b.csar")
    write_chip(_image64(), images / "a.csar")
    (images / "ignored.bin").write_bytes(b"xx")
    for stem in ("a", "b"):
        (annots / f"{stem}.txt").write_text(BOX_LINE + "\n")
    index = index_dataset(images, annots)
    assert [img.stem for img, _ in index.entries] == ["a", "b"]
    with pytest.raises(FileNotFoundError):
        index_dataset(tmp_path / "nope", annots)
    # two images with one stem would share a.txt and one output name
    (images / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DuplicateStem) as exc:
        index_dataset(images, annots)
    assert f"images {images / 'a.csar'} and {images / 'a.pgm'} share" in str(exc.value)
    (images / "a.pgm").unlink()
    (images / "c.csar").write_bytes(b"")
    with pytest.raises(FileNotFoundError):
        index_dataset(images, annots)  # c.txt missing


def _mini_dataset(tmp_path, n_chips=2, all_zero_last=False):
    images = tmp_path / "images"
    annots = tmp_path / "annots"
    images.mkdir()
    annots.mkdir()
    grid = FrequencyGrid(48, 48)
    window = taylor_window_2d(48, 48)
    for i in range(n_chips):
        stem = f"chip_{i:05d}"
        if all_zero_last and i == n_chips - 1:
            write_chip(ComplexRaster(np.zeros((48, 48), dtype=np.complex128)),
                       images / f"{stem}.csar")
            box = OrientedBox.from_rect(8, 8, 40, 40)
            ann = InstanceAnnotation(box=box, class_name="scatterer")
        else:
            chip = synth_target(4, grid, window,
                                np.random.Generator(np.random.PCG64(100 + i)),
                                min_separation=6.0)
            write_chip(chip.image, images / f"{stem}.csar")
            ann = InstanceAnnotation(box=chip.box, class_name=chip.class_name)
        write_annotation([ann], annots / f"{stem}.txt")
    return index_dataset(images, annots)


def test_run_skaa_extends_annotations(tmp_path):
    index = _mini_dataset(tmp_path)
    out = tmp_path / "out"
    summary = run_skaa(index, out, master_seed=0)
    assert summary.instances == 2
    assert summary.failures == 0
    assert len(summary.instance_ms) == 2
    for _, ann_path in index.entries:
        (ann,) = parse_annotation(out / ann_path.name)
        assert ann.keypoints is not None and ann.keypoints.k == 9
        c = ann.box.corners
        for x, y in ann.keypoints.points:
            assert c[:, 0].min() - 2 <= x <= c[:, 0].max() + 2
            assert c[:, 1].min() - 2 <= y <= c[:, 1].max() + 2


def test_run_skaa_reruns_byte_identical(tmp_path):
    index = _mini_dataset(tmp_path)
    out1, out2, out4 = (tmp_path / n for n in ("o1", "o2", "o4"))
    run_skaa(index, out1, master_seed=0)
    run_skaa(index, out2, master_seed=0)
    run_skaa(index, out4, master_seed=0, threads=4)
    for _, ann_path in index.entries:
        ref = (out1 / ann_path.name).read_bytes()
        assert (out2 / ann_path.name).read_bytes() == ref
        assert (out4 / ann_path.name).read_bytes() == ref


def test_run_skaa_replaces_existing_keypoints(tmp_path):
    index = _mini_dataset(tmp_path)
    out1 = tmp_path / "o1"
    run_skaa(index, out1, master_seed=0)
    index2 = index_dataset(tmp_path / "images", out1)
    out2 = tmp_path / "o2"
    run_skaa(index2, out2, master_seed=0)
    for _, ann_path in index.entries:
        assert (out2 / ann_path.name).read_bytes() == \
            (out1 / ann_path.name).read_bytes()


def test_run_skaa_keeps_degenerate_instances(tmp_path, caplog):
    index = _mini_dataset(tmp_path, n_chips=2, all_zero_last=True)
    out = tmp_path / "out"
    summary = run_skaa(index, out, master_seed=0)
    assert summary.failures == 1
    zero_ann = parse_annotation(out / "chip_00001.txt")
    assert zero_ann[0].keypoints is None  # original line kept verbatim


def test_run_summary_counts_each_attempted_instance_once(tmp_path):
    """`instances` is the number of instance times, failed instances
    included; an image that cannot be read adds neither."""
    _mini_dataset(tmp_path, n_chips=3, all_zero_last=True)
    (tmp_path / "images" / "chip_00003.csar").write_bytes(b"not a chip")
    (tmp_path / "annots" / "chip_00003.txt").write_text(BOX_LINE + "\n")
    summary = run_skaa(index_dataset(tmp_path / "images", tmp_path / "annots"),
                       tmp_path / "out", master_seed=0)
    assert (summary.failures, summary.failed_images) == (1, 1)
    assert summary.instances == len(summary.instance_ms) == 3
    assert "instances" not in {f.name for f in dataclasses.fields(summary)}
    with pytest.raises(AttributeError):
        summary.instances = 4


def test_run_dog_rejects_k_above_top_n_before_writing(tmp_path):
    index = _mini_dataset(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"top_n \(5\) must be >= k \(6\)"):
        run_dog(index, out, dog_params=DogParams(top_n=5), k=6)
    assert not out.exists()


def test_run_dog_baseline(tmp_path):
    index = _mini_dataset(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    s = run_dog(index, out1, master_seed=0)
    run_dog(index, out2, master_seed=0)
    assert s.instances == 2 and s.failures == 0
    for _, ann_path in index.entries:
        (ann,) = parse_annotation(out1 / ann_path.name)
        assert ann.keypoints is not None and ann.keypoints.k == 9
        assert (out2 / ann_path.name).read_bytes() == \
            (out1 / ann_path.name).read_bytes()


@pytest.mark.parametrize("run, target", [
    (run_skaa, "_annotate_instance_skaa"), (run_dog, "_annotate_instance_dog")])
def test_threads_run_every_instance_serially_on_the_calling_thread(
        tmp_path, monkeypatch, run, target):
    index = _mini_dataset(tmp_path, n_chips=1)
    (_, ann_path), = index.entries
    write_annotation(parse_annotation(ann_path) * 3, ann_path)
    inner = getattr(annotio, target)
    calls = []

    def recording(image, ann, image_id, idx, *args, **kwargs):
        calls.append((idx, threading.get_ident()))
        return inner(image, ann, image_id, idx, *args, **kwargs)

    monkeypatch.setattr(annotio, target, recording)
    threads = {"threads": 4} if run is run_skaa else {}
    summary = run(index, tmp_path / "out", master_seed=0, **threads)
    assert summary.instances == 3 and summary.failures == 0
    assert calls == [(i, threading.get_ident()) for i in range(3)]


@pytest.mark.parametrize("debug", [False, True])
def test_run_skaa_builds_each_window_through_the_taper_memo(tmp_path, monkeypatch, debug):
    index = _mini_dataset(tmp_path, n_chips=3)
    for _, ann_path in index.entries:
        write_annotation(parse_annotation(ann_path) * 4, ann_path)
    calls = {"taylor_window_2d": []}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    # each crop's window is built under annotio's own `taylor_window_2d`
    # name, the one the benchmark's stage timers wrap
    counting(annotio, "taylor_window_2d")
    spectral._memo_taper.cache_clear()
    spectral._taylor_coefficients.cache_clear()
    for run in ("cold", "warm"):
        summary = run_skaa(index, tmp_path / run, master_seed=0, window_nbar=5,
                           window_sidelobe_db=-30.0,
                           debug_dir=tmp_path / "debug" if debug else None)
        assert summary.instances == 12 and summary.failures == 0
        windows = calls["taylor_window_2d"]
        assert [args[2:] for args in windows] == [(5, -30.0)] * 12
        # a taper only on a memo miss, once per side length, and Taylor's
        # coefficients once for the parameter pair
        lengths = {n for args in windows for n in args[:2]}
        assert spectral._memo_taper.cache_info().misses == len(lengths)
        assert spectral._taylor_coefficients.cache_info().misses == 1
        for name in calls:
            calls[name].clear()
    for _, ann_path in index.entries:
        assert (tmp_path / "warm" / ann_path.name).read_bytes() == \
            (tmp_path / "cold" / ann_path.name).read_bytes()
    if debug:
        assert any((tmp_path / "debug").iterdir())


@pytest.mark.parametrize("debug", [False, True])
def test_run_skaa_builds_its_regions_without_validating_them(tmp_path, monkeypatch, debug):
    inner = ScatterRegion.__post_init__
    calls = []

    def counting(self):
        calls.append(self)
        inner(self)

    monkeypatch.setattr(ScatterRegion, "__post_init__", counting)
    summary = run_skaa(_three_instance_set(tmp_path), tmp_path / "out", master_seed=0,
                       debug_dir=tmp_path / "debug" if debug else None)
    assert summary.instances == 3 and summary.failures == 0
    assert calls == []
    # the public constructor still validates
    ScatterRegion(shape=(4, 4), indices=[5], amplitudes=[2.0])
    assert len(calls) == 1
    with pytest.raises(ValueError, match="ascending"):
        ScatterRegion(shape=(4, 4), indices=[6, 5], amplitudes=[2.0, 1.0])
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["complex", "amplitude"])
def test_run_skaa_checks_each_image_once_and_never_a_crop(tmp_path, monkeypatch, kind):
    index = _three_instance_set(tmp_path)
    if kind == "amplitude":
        for img_path, _ in index.entries:
            write_chip(amplitude(read_chip(img_path)), img_path)
    checked, reads, crops = [], [], []

    def counting(cls, field):
        inner = cls.__post_init__

        def wrapper(self):
            checked.append((cls.__name__, np.shape(getattr(self, field))))
            inner(self)
        monkeypatch.setattr(cls, "__post_init__", wrapper)
    counting(ComplexRaster, "samples")
    counting(AmplitudeRaster, "values")

    def reading(path):
        reads.append(path)
        return read_chip(path)

    def cropping(image, box):
        chip, origin = crop_chip(image, box)
        crops.append((image, chip))
        return chip, origin

    monkeypatch.setattr(annotio, "read_chip", reading)
    monkeypatch.setattr(annotio, "crop_chip", cropping)
    summary = run_skaa(index, tmp_path / "out", master_seed=0)
    assert summary.instances == 3 and summary.failures == 0
    assert len(reads) == 2 and len(crops) == 3
    # a complex payload is checked once, as float32, before any raster is
    # built; an amplitude one by its AmplitudeRaster, which the run crops
    # as it was read, without a second check
    want = [] if kind == "complex" else [("AmplitudeRaster", (48, 48))] * 2
    assert checked == want
    field, dtype = ("samples", np.complex128) if kind == "complex" else ("values", np.float64)
    for image, chip in crops:
        assert getattr(chip, field).dtype == dtype
        assert not getattr(chip, field).flags.writeable
        assert np.shares_memory(getattr(chip, field), getattr(image, field))


def test_run_skaa_writes_skaa_keypoints_of_each_crop(tmp_path):
    index = _mini_dataset(tmp_path, n_chips=3)
    for _, ann_path in index.entries:
        write_annotation(parse_annotation(ann_path) * 2, ann_path)
    dec_params = DecoupleParams(n_max=6)
    out = tmp_path / "out"
    summary = run_skaa(index, out, master_seed=11, dec_params=dec_params, k=4,
                       window_nbar=5, window_sidelobe_db=-30.0)
    assert summary.instances == 6 and summary.failures == 0
    for img_path, ann_path in index.entries:
        image = read_chip(img_path)
        expected = []
        for idx, ann in enumerate(parse_annotation(ann_path)):
            chip, origin = crop_chip(image, ann.box)
            window = taylor_window_2d(chip.height, chip.width, nbar=5,
                                      sidelobe_db=-30.0)
            kps = skaa_keypoints(chip, window, dec_params, k=4,
                                 rng_seed=instance_seed(11, img_path.stem, idx))
            expected.append(replace(ann, keypoints=to_global(kps, origin)))
        assert (out / ann_path.name).read_text() == format_annotation(expected)


def test_run_skaa_debug_dir_leaves_the_annotations_unchanged(tmp_path):
    index = _mini_dataset(tmp_path, n_chips=3, all_zero_last=True)
    plain, dumped, debug = (tmp_path / n for n in ("plain", "dumped", "debug"))
    a = run_skaa(index, plain, master_seed=0)
    b = run_skaa(index, dumped, master_seed=0, debug_dir=debug)
    assert (a.instances, a.failures) == (b.instances, b.failures) == (3, 1)
    for _, ann_path in index.entries:
        assert (dumped / ann_path.name).read_bytes() == \
            (plain / ann_path.name).read_bytes()
    assert sorted(p.name for p in debug.glob("chip_00000_000_*")) == \
        ["chip_00000_000_amplitude.csar", "chip_00000_000_supports.txt"]


def test_run_skaa_debug_dir_runs_the_extraction_loop_once_per_instance(
        tmp_path, monkeypatch):
    frames = []
    inner = decouple_module._Frame

    def counting(vals):
        frames.append(vals.shape)
        return inner(vals)

    monkeypatch.setattr(decouple_module, "_Frame", counting)
    debug = tmp_path / "debug"
    summary = run_skaa(_three_instance_set(tmp_path), tmp_path / "out", master_seed=0,
                       debug_dir=debug)
    assert summary.instances == 3 and summary.failures == 0
    assert len(frames) == 3
    for image_id, idx in (("chip_00000", 0), ("chip_00000", 1), ("chip_00001", 0)):
        stem = f"{image_id}_{idx:03d}"
        assert sorted(p.name for p in debug.glob(f"{stem}_*")) == \
            [f"{stem}_amplitude.csar", f"{stem}_supports.txt"]


def test_fit_lays_out_each_instance_once_and_fits_each_region(tmp_path, monkeypatch):
    # the fit kernel takes one flat layout per instance and gives one
    # position per region; only `fit_regions` goes on to gains and residuals
    layouts, fits, closed_forms = [], [], []
    kernel, fitted = ascmodel._fit_positions, annotio._fitted

    def fitting(shape, indices, amplitudes, sizes, psf):
        layouts.append(len(sizes))
        (ys, xs, best), positive = kernel(shape, indices, amplitudes, sizes, psf)
        fits.extend(zip(ys, xs, best))
        return (ys, xs, best), positive

    def closing(*layout):
        closed_forms.append(len(layout[3]))
        return fitted(*layout)

    for module in (annotio, ascmodel):
        monkeypatch.setattr(module, "_fit_positions", fitting)
    monkeypatch.setattr(annotio, "_fitted", closing)
    summary = run_skaa(_three_instance_set(tmp_path), tmp_path / "out", master_seed=0)
    assert summary.instances == 3 and summary.failures == 0
    assert len(layouts) == 3 and min(layouts) >= 2
    assert len(fits) == sum(layouts) and closed_forms == []

    chip = synth_target(6, FrequencyGrid(48, 48), taylor_window_2d(48, 48),
                        np.random.Generator(np.random.PCG64(5)))
    layouts.clear()
    fits.clear()
    window = taylor_window_2d(48, 48)
    assert len(annotio.fit_regions(chip.image, window)) == layouts[0]
    annotio.skaa_keypoints(chip.image, window)
    assert len(layouts) == 2 and len(fits) == sum(layouts)
    assert closed_forms == layouts[:1]


@pytest.mark.parametrize("window", [{"window_nbar": 0}, {"window_sidelobe_db": 3.0}])
def test_run_skaa_rejects_bad_window_params_before_writing(tmp_path, window):
    index = _mini_dataset(tmp_path, n_chips=2)
    out, debug = tmp_path / "out", tmp_path / "debug"
    with pytest.raises(InvalidWindowParams):
        run_skaa(index, out, master_seed=0, debug_dir=debug, **window)
    assert not out.exists() and not debug.exists()


@pytest.mark.parametrize("k", [2.5, float("nan")])
def test_runs_reject_a_non_integer_k_before_writing(tmp_path, k):
    # a ValueError is no ScatterKitError: from the first instance on it
    # would abort the whole run, so it is raised before anything is written
    index = _mini_dataset(tmp_path, n_chips=2)
    out, debug = tmp_path / "out", tmp_path / "debug"
    with pytest.raises(ValueError, match="k must be an integer"):
        run_skaa(index, out, master_seed=0, debug_dir=debug, k=k)
    with pytest.raises(ValueError, match="k must be an integer"):
        run_dog(index, out, master_seed=0, k=k)
    assert not out.exists() and not debug.exists()


@pytest.mark.parametrize("nbar", [4.0, 4.5])
def test_run_skaa_rejects_a_non_integer_nbar_with_the_memo_cold_and_warm(tmp_path, nbar):
    index = _mini_dataset(tmp_path, n_chips=2)
    spectral._memo_taper.cache_clear()
    for memo in ("cold", "warm"):
        out, debug = tmp_path / memo, tmp_path / f"{memo}_debug"
        with pytest.raises(InvalidWindowParams, match="nbar must be an integer"):
            run_skaa(index, out, master_seed=0, debug_dir=debug, window_nbar=nbar)
        assert not out.exists() and not debug.exists()
        # fills the memo with nbar 4's tapers of these crops
        assert run_skaa(index, tmp_path / f"{memo}_4", master_seed=0, window_nbar=4).failures == 0
    assert spectral._memo_taper.cache_info().currsize > 0


def test_run_rejects_non_positive_threads(tmp_path):
    index = _mini_dataset(tmp_path, n_chips=1)
    with pytest.raises(ValueError):
        run_skaa(index, tmp_path / "out", master_seed=0, threads=0)


def test_dataset_index_requires_existing_files(tmp_path):
    img = tmp_path / "x.csar"
    ann = tmp_path / "x.txt"
    with pytest.raises(FileNotFoundError):
        DatasetIndex(entries=((img, ann),), root=tmp_path)


def _corrupt_chip(path):
    raw = bytearray(path.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))  # first sample after the header
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("run", [run_skaa, run_dog])
@pytest.mark.parametrize("broken", ["chip", "annotation"])
def test_run_isolates_an_image_that_fails_to_parse(tmp_path, caplog, run, broken):
    index = _mini_dataset(tmp_path, n_chips=3)
    img_path, ann_path = index.entries[1]
    if broken == "chip":
        _corrupt_chip(img_path)
    else:
        ann_path.write_text("1 2 3\n", encoding="ascii")
    out = tmp_path / "out"
    summary = run(index, out, master_seed=0)
    assert summary.failed_images == 1
    assert summary.instances == 2 and summary.failures == 0
    assert (out / ann_path.name).read_bytes() == ann_path.read_bytes()
    for i in (0, 2):
        (ann,) = parse_annotation(out / index.entries[i][1].name)
        assert ann.keypoints is not None and ann.keypoints.k == 9
    assert "chip_00001" in caplog.text


# The benchmark's span contract. perfbench/spans.py times library stages by
# wrapping functions by module and name; a renamed or moved function does not
# fail a benchmark run, its span just reads absent or 0. These run the
# benchmark's own Tracer and require each annotate stage span per instance.

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# `ascmodel.fit_scatterer` is not among them: annotate fits every position of
# an instance in one kernel call and never calls `fit_scatterer`.
SKAA_SPANS = ("annotio.instance", "annotio.crop_chip", "spectral.taylor_window_2d",
              "keypoints.cluster_keypoints")


@pytest.fixture(scope="module")
def Tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module.Tracer
    finally:
        del sys.modules[spec.name]


def _three_instance_set(tmp_path):
    index = _mini_dataset(tmp_path, n_chips=2)
    (_, ann_path) = index.entries[0]
    write_annotation(parse_annotation(ann_path) * 2, ann_path)
    return index


def test_skaa_run_fires_every_stage_span_for_every_instance(tmp_path, Tracer):
    index = _three_instance_set(tmp_path)
    with Tracer() as tracer:
        summary = run_skaa(index, tmp_path / "out", master_seed=0)
    assert summary.instances == 3 and summary.failures == 0
    assert not tracer.absent_layers() & set(SKAA_SPANS)
    fired = {(s.name, s.instance) for s in tracer.spans}
    missing = [(name, i) for name in SKAA_SPANS for i in range(3)
               if (name, i) not in fired]
    assert missing == []


def test_dog_run_fires_the_dog_span_inside_every_instance(tmp_path, Tracer):
    index = _three_instance_set(tmp_path)
    with Tracer() as tracer:
        summary = run_dog(index, tmp_path / "out", master_seed=0)
    assert summary.instances == 3 and summary.failures == 0
    instances = [i for i, s in enumerate(tracer.spans)
                 if s.name == "annotio.instance_dog"]
    assert len(instances) == 3
    parents = {s.parent for s in tracer.spans if s.name == "keypoints.dog_keypoints"}
    assert parents == set(instances)


def test_parse_and_io_spans_fire_once_per_file(tmp_path, Tracer):
    """The parse and I/O layers sit under the names `perfbench/spans.py`
    wraps: `run_skaa` reads, parses and writes each image once, and `eval`
    parses its prediction file once and each GT file once. Without them,
    `annotio.parse_annotation.ms_per_image` and `annotio.parse_predictions.ms`
    would read 0."""
    index = _three_instance_set(tmp_path)
    with Tracer() as tracer:
        run_skaa(index, tmp_path / "out", master_seed=0)
    names = [s.name for s in tracer.spans]
    for name in ("chipio.read_chip", "annotio.parse_annotation", "annotio.write_annotation"):
        assert names.count(name) == len(index.entries), name

    gts = tmp_path / "gts"
    gts.mkdir()
    for stem in ("img0", "img1", "img2"):
        (gts / f"{stem}.txt").write_text(BOX_LINE + "\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("img0 0 0.9 0 0 4 0 4 4 0 4\nimg2 0 0.5 0 0 4 0 4 4 0 4\n")
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 0
    names = [s.name for s in tracer.spans]
    assert names.count("annotio.parse_predictions") == 1
    assert names.count("annotio.parse_annotation") == 3
