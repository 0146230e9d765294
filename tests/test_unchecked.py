"""One unchecked way to build a value: `raster._unchecked_all`.

A value is built either by its checked constructor or by `_unchecked_all`
(`_unchecked` is its one-value case), from fields the caller has already
made to meet those checks. These tests hold the rule in the source, and
hold every value the annotate and eval paths build unchecked to what its
checked constructor would build from the same fields.
"""

import ast
import dataclasses
import importlib
import importlib.util
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scatterkit.annotio import (crop_chip, index_dataset, parse_annotation, parse_predictions,
                                run_dog, run_skaa)
from scatterkit.chipio import read_chip, write_chip
from scatterkit.metrics import OrientedBox
from scatterkit.raster import AmplitudeRaster, ComplexRaster, _unchecked, _unchecked_all, amplitude

from test_annotio import _mini_dataset

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scatterkit"
# the modules that build values through `_unchecked` or `_unchecked_all`
BUILDERS = ("annotio", "ascmodel", "chipio", "decouple", "metrics", "spectral")
# the records built unchecked that hold no array
RECORDS = {"InstanceAnnotation", "Detection", "KeypointSet"}


class _Scopes(ast.NodeVisitor):
    """The innermost function around each use of `object.__new__`."""

    def __init__(self):
        self.scope, self.uses = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "__new__" and isinstance(node.value, ast.Name) \
                and node.value.id == "object":
            self.uses.append(self.scope[-1])
        self.generic_visit(node)


def test_object_new_is_used_only_inside_unchecked():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        scopes = _Scopes()
        scopes.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        uses += [(path.name, scope) for scope in scopes.uses]
    assert uses == [("raster.py", "_unchecked_all")]


def test_no_retired_builder_name_is_left():
    left = [(path.name, name) for path in sorted(SRC.glob("*.py"))
            for name in ("_trusted", "_set_axes")
            if name in path.read_text(encoding="utf-8")]
    assert left == []


def test_every_module_that_builds_unchecked_is_recorded_below():
    users = {path.stem for path in SRC.glob("*.py") if path.stem != "raster"
             and "_unchecked" in path.read_text(encoding="utf-8")}
    assert users == set(BUILDERS)


def test_unchecked_freezes_in_place_and_runs_no_check():
    samples = np.full((2, 2), np.nan + 0j)  # the constructor rejects NaN
    raster = _unchecked(ComplexRaster, samples=samples)
    assert type(raster) is ComplexRaster and raster.samples is samples
    assert not samples.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        raster.samples = np.ones((1, 1))


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen_unchecked",
                                                  ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bits(v):
    """`v` with every float as its bit pattern and every array as its dtype,
    shape and bytes, so that `==` is bit equality."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if isinstance(v, float):
        return struct.pack("<d", v)
    return type(v).__name__, v


def _rebuilt(value):
    """`value` built again by its checked constructor, from its init fields."""
    cls = type(value)
    return cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.init})


def _record_unchecked(monkeypatch) -> list:
    """Every value the builder modules build unchecked from now on, in the
    order built, through either builder."""
    built = []

    def recording(cls, **fields):
        value = _unchecked(cls, **fields)
        built.append(value)
        return value

    def recording_all(cls, rows):
        values = _unchecked_all(cls, rows)
        built.extend(values)
        return values
    for name in BUILDERS:
        module = importlib.import_module(f"scatterkit.{name}")
        for attr, builder in (("_unchecked", recording), ("_unchecked_all", recording_all)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, builder)
    return built


def _assert_each_passes_its_checks(built):
    """Each value holds only read-only arrays, none if it is a record, and
    its checked constructor accepts its fields and derives every stored
    value bit for bit."""
    for value in built:
        arrays = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
        if type(value).__name__ in RECORDS:
            assert not arrays
        else:
            assert arrays and not any(a.flags.writeable for a in arrays)
        again = _rebuilt(value)
        assert vars(again).keys() == vars(value).keys()
        assert {k: _bits(v) for k, v in vars(again).items()} == \
            {k: _bits(v) for k, v in vars(value).items()}


def _annotate_inputs(gen, root, kind):
    if kind == "scenes-multi":
        ds = gen.generate("scenes-multi", 0, root, fraction=0.34)
    else:
        ds = gen.generate(kind.removesuffix("-amplitude"), 0, root, fraction=0.15)
    if kind.endswith("-amplitude"):
        for path in sorted(ds.images.iterdir()):
            write_chip(amplitude(read_chip(path)), path)
    return index_dataset(ds.images, ds.annots)


@pytest.mark.parametrize("kind", ["chips-clean", "chips-speckled", "scenes-multi",
                                  "chips-clean-amplitude"])
def test_each_value_built_unchecked_on_the_annotate_path_passes_its_checks(
        gen, tmp_path, monkeypatch, kind):
    """Every crop, window, region, PSF, laid-out region, parsed box and
    parsed annotation that annotate builds unchecked holds only read-only
    arrays, or none if it is a record, and its checked constructor accepts
    its fields and derives every stored value bit for bit."""
    index = _annotate_inputs(gen, tmp_path / "in", kind)
    built = _record_unchecked(monkeypatch)
    summary = run_skaa(index, tmp_path / "out", master_seed=0)
    assert summary.instances > 0 and summary.failures == 0
    monkeypatch.undo()

    names = {type(v).__name__ for v in built}
    crop = "AmplitudeRaster" if kind.endswith("-amplitude") else "ComplexRaster"
    assert names == {crop, "WindowRaster", "ScatterRegion", "SeparablePsf",
                     "LaidOutRegion", "OrientedBox", "InstanceAnnotation"}
    _assert_each_passes_its_checks(built)


def test_each_value_built_unchecked_on_the_eval_path_passes_its_checks(
        gen, tmp_path, monkeypatch):
    """Every box, detection, keypoint set and annotation that parsing the
    `eval-rotated` prediction and GT files builds unchecked gives the same
    fields, bit for bit, when its checked constructor builds it again."""
    ds = gen.generate("eval-rotated", 0, tmp_path / "in", fraction=0.1)
    built = _record_unchecked(monkeypatch)
    n_det = n_gt = 0
    for gts_dir, preds, _, _ in ds.shards:
        n_det += sum(map(len, parse_predictions(preds).values()))
        n_gt += sum(len(parse_annotation(path)) for path in sorted(gts_dir.iterdir()))
    monkeypatch.undo()

    assert n_det > 0 and n_gt > 0
    assert Counter(type(value).__name__ for value in built) == {"OrientedBox": n_det + n_gt, "Detection": n_det,
                      "KeypointSet": n_gt, "InstanceAnnotation": n_gt}
    _assert_each_passes_its_checks(built)


def _amplitude_twin_sets(tmp_path, fmt):
    """One dataset whose images are amplitude files of format `fmt` and one
    whose images are the same values as complex CSAR files, with the same
    stems and annotations."""
    (tmp_path / "src").mkdir()
    index = _mini_dataset(tmp_path / "src", n_chips=3)
    sets = {}
    for name in ("amp", "twin"):
        (tmp_path / name / "images").mkdir(parents=True)
        (tmp_path / name / "annots").mkdir()
        sets[name] = tmp_path / name
    for img_path, ann_path in index.entries:
        amp = amplitude(read_chip(img_path)).values
        stem = img_path.stem
        if fmt == "csar":
            path = sets["amp"] / "images" / f"{stem}.csar"
            write_chip(AmplitudeRaster(amp), path)
        else:
            maxval, dtype = (255, "u1") if fmt == "pgm8" else (65535, ">u2")
            path = sets["amp"] / "images" / f"{stem}.pgm"
            raw = np.floor(amp / amp.max() * maxval + 0.5).astype(dtype)
            h, w = raw.shape
            path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + raw.tobytes())
        # every value read is a float32, so the complex CSAR holds it exactly
        values = read_chip(path).values
        write_chip(ComplexRaster(values + 0j), sets["twin"] / "images" / f"{stem}.csar")
        for name in sets:
            (sets[name] / "annots" / ann_path.name).write_bytes(ann_path.read_bytes())
    return {name: index_dataset(root / "images", root / "annots")
            for name, root in sets.items()}


@pytest.mark.parametrize("fmt", ["pgm8", "pgm16", "csar"])
@pytest.mark.parametrize("run", [run_skaa, run_dog])
def test_amplitude_images_annotate_as_their_complex_twins(tmp_path, fmt, run):
    """Amplitude images are cropped as read, not widened to complex samples
    first; the keypoints are the ones their complex twins give."""
    sets = _amplitude_twin_sets(tmp_path, fmt)
    outs = {}
    for name, index in sets.items():
        summary = run(index, tmp_path / f"out-{name}", master_seed=3)
        assert summary.instances == 3 and summary.failures == 0
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / f"out-{name}").iterdir()}
    assert len(outs["amp"]) == 3 and outs["amp"] == outs["twin"]
    assert all(b" kp " in text for text in outs["amp"].values())


def test_an_amplitude_crop_is_a_read_only_view_of_its_image():
    image = AmplitudeRaster(np.arange(64.0).reshape(8, 8))
    chip, origin = crop_chip(image, OrientedBox.from_rect(2, 1, 6, 7))
    assert type(chip) is AmplitudeRaster and origin == (2, 1)
    assert np.shares_memory(chip.values, image.values)
    assert not chip.values.flags.writeable
    np.testing.assert_array_equal(chip.values, image.values[1:7, 2:6])
    assert amplitude(chip) is chip
