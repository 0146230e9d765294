"""Annotation text formats, cropping, dataset indexing, annotation runs."""

import importlib.util
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scatterkit import annotio, spectral
from scatterkit.annotio import (DatasetIndex, InstanceAnnotation, crop_chip,
                                format_annotation, index_dataset,
                                parse_annotation, parse_predictions,
                                parse_truth, run_dog, run_skaa, skaa_keypoints,
                                write_annotation, write_truth)
from scatterkit.ascmodel import FrequencyGrid, Scatterer, synth_target
from scatterkit.chipio import read_chip, write_chip
from scatterkit.decouple import DecoupleParams, ScatterRegion
from scatterkit.errors import (BadKeypointCount, BoxOutsideImage,
                               InvalidWindowParams, MalformedLine, OutOfBounds)
from scatterkit.keypoints import KeypointSet, instance_seed, to_global
from scatterkit.metrics import OrientedBox
from scatterkit.raster import AmplitudeRaster, ComplexRaster, amplitude
from scatterkit.spectral import taylor_window_2d

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
    assert "17" in str(exc.value)


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
            keypoints=KeypointSet(points=((3.5, 4.25), (10.0, 11.0)), k=2)),
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
                           keypoints=KeypointSet(((x_far, float(c[0, 1])),), k=1))
        x_out = float(c[:, 0].min()) - 2.5
        with pytest.raises(OutOfBounds) as exc:
            InstanceAnnotation(box=box, class_name="t",
                               keypoints=KeypointSet(((x_out, float(c[0, 1])),), k=1))
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
    summary = run(index, tmp_path / "out", master_seed=0, threads=4)
    assert summary.instances == 3 and summary.failures == 0
    assert calls == [(i, threading.get_ident()) for i in range(3)]


@pytest.mark.parametrize("debug", [False, True])
def test_run_skaa_builds_each_window_through_the_taper_memo(tmp_path, monkeypatch, debug):
    index = _mini_dataset(tmp_path, n_chips=3)
    for _, ann_path in index.entries:
        write_annotation(parse_annotation(ann_path) * 4, ann_path)
    calls = {"taylor_window_2d": [], "_taylor_coefficients": []}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    # each crop's window is built under annotio's own `taylor_window_2d`
    # name, the one the benchmark's stage timers wrap
    counting(annotio, "taylor_window_2d")
    counting(spectral, "_taylor_coefficients")
    spectral._memo_taper.cache_clear()
    for run in ("cold", "warm"):
        summary = run_skaa(index, tmp_path / run, master_seed=0, window_nbar=5,
                           window_sidelobe_db=-30.0,
                           debug_dir=tmp_path / "debug" if debug else None)
        assert summary.instances == 12 and summary.failures == 0
        windows = calls["taylor_window_2d"]
        assert [args[2:] for args in windows] == [(5, -30.0)] * 12
        # Taylor's coefficients only on a memo miss: once per side length
        lengths = {n for args in windows for n in args[:2]}
        expected = [(5, -30.0)] * len(lengths) if run == "cold" else []
        assert calls["_taylor_coefficients"] == expected
        assert spectral._memo_taper.cache_info().misses == len(lengths)
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
    ScatterRegion(shape=(4, 4), indices=[5], amplitudes=[2.0], peak=(1, 1))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="ascending"):
        ScatterRegion(shape=(4, 4), indices=[6, 5], amplitudes=[2.0, 1.0], peak=(1, 2))
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
    # built; an amplitude one by its AmplitudeRaster, which the run widens
    # to complex samples without a second check
    want = [] if kind == "complex" else [("AmplitudeRaster", (48, 48))] * 2
    assert checked == want
    for image, chip in crops:
        assert chip.samples.dtype == np.complex128
        assert not chip.samples.flags.writeable
        assert np.shares_memory(chip.samples, image.samples)


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
            kps = skaa_keypoints(chip, FrequencyGrid(chip.height, chip.width),
                                 window, dec_params, k=4,
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
    assert sorted(debug.glob("chip_00000_000_*_residual.csar"))


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
        assert sorted(debug.glob(f"{image_id}_{idx:03d}_*_residual.csar"))


def test_fit_lays_out_each_instance_once_and_fits_each_region(tmp_path, monkeypatch):
    layouts, fits = [], []
    lay_out, fit = annotio.lay_out_regions, annotio.fit_scatterer

    def laying_out(regions, shape):
        layouts.append(len(regions))
        return lay_out(regions, shape)

    def fitting(region, psf, refine=False):
        fits.append(region.shape)
        return fit(region, psf, refine=refine)

    monkeypatch.setattr(annotio, "lay_out_regions", laying_out)
    monkeypatch.setattr(annotio, "fit_scatterer", fitting)
    summary = run_skaa(_three_instance_set(tmp_path), tmp_path / "out", master_seed=0)
    assert summary.instances == 3 and summary.failures == 0
    assert len(layouts) == 3 and min(layouts) >= 2
    assert len(fits) == sum(layouts)

    chip = synth_target(6, FrequencyGrid(48, 48), taylor_window_2d(48, 48),
                        np.random.Generator(np.random.PCG64(5)))
    layouts.clear()
    fits.clear()
    grid, window = FrequencyGrid(48, 48), taylor_window_2d(48, 48)
    annotio.fit_regions(chip.image, grid, window, refine=True)
    annotio.skaa_keypoints(chip.image, grid, window)
    assert len(layouts) == 2 and len(fits) == sum(layouts)


@pytest.mark.parametrize("window", [{"window_nbar": 0}, {"window_sidelobe_db": 3.0}])
def test_run_skaa_rejects_bad_window_params_before_writing(tmp_path, window):
    index = _mini_dataset(tmp_path, n_chips=2)
    out, debug = tmp_path / "out", tmp_path / "debug"
    with pytest.raises(InvalidWindowParams):
        run_skaa(index, out, master_seed=0, debug_dir=debug, **window)
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

SKAA_SPANS = ("annotio.instance", "annotio.crop_chip", "spectral.taylor_window_2d",
              "ascmodel.fit_scatterer", "keypoints.cluster_keypoints")


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
