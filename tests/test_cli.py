"""End-to-end CLI behavior: exit codes, outputs, config layering."""

import dataclasses
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from scatterkit.annotio import crop_chip, parse_annotation, parse_truth
from scatterkit.chipio import read_chip, write_chip
from scatterkit import annotio, cli, metrics
from scatterkit.cli import _threshold_sweep, main
from scatterkit.config import MANIFEST_NAME
from scatterkit.decouple import DecoupleParams
from scatterkit.errors import MalformedLine
from scatterkit.metrics import mean_ap
from scatterkit.raster import AmplitudeRaster, ComplexRaster, amplitude

from oracles import decouple_steps_dense
from test_golden import _amplitude_copy, _scene


def run_cli(*argv):
    return main(list(argv))


def usage_exit(*argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    return exc.value.code


def synth(tmp_path, name="data", chips=2, dim=32, seed=0, extra=()):
    out = tmp_path / name
    assert run_cli("synth", "--out", str(out), "--chips", str(chips),
                   "--dim", str(dim), "--scatterers", "2..4",
                   "--seed", str(seed), *extra) == 0
    return out


def test_main_builds_the_parser_once_per_process(tmp_path, capsys):
    """In-process calls share one parser, and a usage error after
    successful calls on other subcommands still exits 1 with the message
    a fresh parser gives."""
    bad = ("synth", "--out", str(tmp_path / "x"), "--chips", "0", "--seed", "0")
    cli._build_parser.cache_clear()
    assert usage_exit(*bad) == 1
    fresh = capsys.readouterr().err
    assert "argument --chips" in fresh
    cli._build_parser.cache_clear()
    data = synth(tmp_path, chips=1)
    assert run_cli("baseline-dog", "--images", str(data / "images"), "--annots",
                   str(data / "annots"), "--out", str(tmp_path / "dog")) == 0
    eval_args = one_box_eval_args(tmp_path)
    assert run_cli(*eval_args) == 0
    capsys.readouterr()
    assert usage_exit(*bad) == 1
    assert capsys.readouterr().err == fresh
    assert run_cli(*eval_args) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_each_parsed_file_builds_its_boxes_in_one_call(tmp_path, monkeypatch):
    """`eval` and `annotate` build each file's boxes from one stack of all
    its lines' corners: one derivation call per parsed file, none per line."""
    data = synth(tmp_path, chips=2)
    calls = []
    real = metrics._box_fields

    def counting(stack):
        calls.append(len(stack))
        return real(stack)

    monkeypatch.setattr(metrics, "_box_fields", counting)
    monkeypatch.setattr(annotio, "_box_fields", counting)
    gts = tmp_path / "gts"
    gts.mkdir()
    box = "0 0 4 0 4 4 0 4"
    (gts / "img0.txt").write_text(f"{box} tank 0\n{box} ship 1\n\n{box} tank 0\n")
    (gts / "img1.txt").write_text(f"{box} tank 0\n{box} ship 0\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("".join(f"img{i % 2} 0 0.{i + 1} {box}\n" for i in range(5)))
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts)) == 0
    assert calls == [5, 3, 2]
    calls.clear()
    assert run_cli("annotate", "--images", str(data / "images"), "--annots",
                   str(data / "annots"), "--out", str(tmp_path / "skaa"), "--seed", "0") == 0
    assert calls == [1, 1]


def test_no_arguments_is_usage_error():
    assert usage_exit() == 1


def test_unknown_flag_is_usage_error():
    assert usage_exit("synth", "--out", "x", "--chips", "1", "--seed", "0",
                      "--frobnicate") == 1


def test_bad_value_formats_are_usage_errors(tmp_path):
    assert usage_exit("synth", "--out", str(tmp_path), "--chips", "1",
                      "--seed", "0", "--scatterers", "5-15") == 1
    assert usage_exit("heatmap", "--annots", str(tmp_path), "--dims", "32",
                      "--out", str(tmp_path / "o")) == 1
    assert usage_exit("heatmap", "--annots", str(tmp_path), "--dims", "32x32",
                      "--out", str(tmp_path / "o"), "--pool", "median") == 1
    assert usage_exit("eval", "--phr", "0.5:0.1:0.1") == 1


def one_box_eval_args(tmp_path):
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text("0 0 4 0 4 4 0 4 tank 0\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("img0 0 0.9 0 0 4 0 4 4 0 4\n")
    return "eval", "--preds", str(preds), "--gts", str(gts)


@pytest.mark.parametrize("iou", ["nan", "0", "1", "1.5", "-0.1"])
def test_eval_iou_outside_unit_interval_is_usage_error(tmp_path, capsys, iou):
    assert usage_exit(*one_box_eval_args(tmp_path), f"--iou={iou}") == 1
    err = capsys.readouterr().err
    assert "argument --iou: IoU threshold must lie in (0, 1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sweep", [
    "0:inf:0.05", "0:0.5:inf", "-inf:0.5:0.1", "nan:0.5:0.1", "0:nan:0.1",
    "0:0.5:nan", "-0.1:0.5:0.1", "0:1.5:0.1", "0:1:0", "0:1:-0.1", "0:1:1e-300",
    "0:1:9.9e-5", "0.5:0.5000000000000001:2e-20",
])
def test_eval_phr_sweep_that_is_not_finite_or_leaves_unit_interval_is_usage_error(
        tmp_path, capsys, sweep):
    assert usage_exit(*one_box_eval_args(tmp_path), f"--phr={sweep}") == 1
    err = capsys.readouterr().err
    assert "argument --phr:" in err and "Traceback" not in err


def test_eval_phr_sweep_spans_both_ends_of_unit_interval(tmp_path, capsys):
    assert _threshold_sweep("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert run_cli(*one_box_eval_args(tmp_path), "--phr=0:1:0.25") == 0
    assert "Traceback" not in capsys.readouterr().err
    assert _threshold_sweep("0.05:0.8:0.05")[-1] == 0.8
    assert len(_threshold_sweep("0:1:1e-4")) == 10_001


def test_eval_phr_labels_are_distinct_and_read_back_as_the_thresholds(tmp_path, capsys):
    args = one_box_eval_args(tmp_path)
    assert run_cli(*args, "--phr=0.5:0.52:0.005") == 0
    labels = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("phr ")]
    assert labels == ["t=0.50", "t=0.505", "t=0.51", "t=0.515", "t=0.52"]
    assert run_cli(*args, "--phr=0:1:0.0625") == 0
    labels = [line.split()[1][2:] for line in capsys.readouterr().out.splitlines()
              if line.startswith("phr ")]
    assert labels[:3] == ["0.00", "0.0625", "0.125"] and labels[-1] == "1.00"
    assert [float(t) for t in labels] == list(_threshold_sweep("0:1:0.0625"))


def test_eval_requires_inputs(tmp_path):
    assert usage_exit("eval") == 1
    assert usage_exit("eval", "--keypoint-compare", "--annots-a",
                      str(tmp_path)) == 1


def test_missing_directory_is_io_error(tmp_path):
    code = run_cli("annotate", "--images", str(tmp_path / "nope"),
                   "--annots", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out"), "--seed", "0")
    assert code == 2


def test_malformed_data_is_data_error(tmp_path, capsys):
    preds = tmp_path / "preds.txt"
    preds.write_text("not a prediction line\n")
    gts = tmp_path / "gts"
    gts.mkdir()
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts)) == 3
    preds.write_text("img0 0 0.9 0 0 4 0 4 4 0 4\n")
    (gts / "img0.txt").write_text("0 0 4 0 4 4 0 4 tank 0 kp 1 2 3\n")
    capsys.readouterr()
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts)) == 3
    assert capsys.readouterr().err == ("scatterkit: data error: line 1: keypoint list must "
                                       "hold 2k numbers, got 3\n")


@pytest.mark.parametrize("corners", [
    "1e200 1e200 2e200 1e200 2e200 2e200 1e200 2e200",  # shoelace area inf
    "0 0 1e200 0 1e200 1e200 0 1e200",                  # shoelace area inf
    "0 0 2e200 1e200 2e200 2e200 1e200 2e200",          # shoelace area NaN
])
def test_eval_box_whose_area_is_not_finite_is_data_error(tmp_path, capsys, corners):
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text(f"{corners} ship 0\n")
    preds = tmp_path / "preds.txt"
    preds.write_text(f"img0 0 0.9 {corners}\n")
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts)) == 3
    err = capsys.readouterr().err
    assert "box area is not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("kp", ["nan 1", "1e400 1"])
def test_non_finite_keypoint_in_an_annotation_is_data_error(tmp_path, capsys, caplog, kp):
    data = synth(tmp_path, chips=2)
    bad = data / "annots" / "chip_00001.txt"
    lines = bad.read_text().splitlines()
    lines[0] += f" kp {kp}"
    bad.write_text("\n".join(lines) + "\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("chip_00000 0 0.9 0 0 4 0 4 4 0 4\n")
    out = tmp_path / "out"
    capsys.readouterr()
    for argv in (("eval", "--preds", str(preds), "--gts", str(data / "annots")),
                 ("heatmap", "--annots", str(data / "annots"), "--dims", "32x32",
                  "--out", str(tmp_path / "maps")),
                 ("annotate", "--images", str(data / "images"),
                  "--annots", str(data / "annots"), "--out", str(out), "--seed", "0")):
        caplog.clear()
        assert run_cli(*argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # annotate logs the file's error and carries on
        assert "line 1: keypoints must be finite" in err + caplog.text, argv[0]
    # annotate copies the bad file through, counts it, and annotates the rest
    assert (out / "chip_00001.txt").read_bytes() == bad.read_bytes()
    (ann,) = parse_annotation(out / "chip_00000.txt")
    assert ann.keypoints is not None
    assert "failed_images = 1" in (out / MANIFEST_NAME).read_text()


def test_annotate_non_finite_chip_is_data_error(tmp_path):
    data = synth(tmp_path)
    chip = data / "images" / "chip_00000.csar"
    raw = bytearray(chip.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))  # first sample after the header
    chip.write_bytes(bytes(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit.cli", "annotate",
         "--images", str(data / "images"), "--annots", str(data / "annots"),
         "--out", str(tmp_path / "out"), "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "NaN/Inf" in proc.stderr


def test_annotate_isolates_a_non_finite_chip(tmp_path):
    data = synth(tmp_path, chips=3)
    bad = data / "images" / "chip_00001.csar"
    raw = bytearray(bad.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))
    bad.write_bytes(bytes(raw))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit.cli", "annotate",
         "--images", str(data / "images"), "--annots", str(data / "annots"),
         "--out", str(out), "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "chip_00001.csar" in proc.stderr
    for stem in ("chip_00000", "chip_00002"):
        (ann,) = parse_annotation(out / f"{stem}.txt")
        assert ann.keypoints is not None
    assert (out / "chip_00001.txt").read_bytes() == \
        (data / "annots" / "chip_00001.txt").read_bytes()
    manifest = (out / MANIFEST_NAME).read_text()
    assert "failed_images = 1" in manifest


def test_synth_writes_dataset(tmp_path, capsys):
    out = synth(tmp_path)
    assert (out / MANIFEST_NAME).is_file()
    images = sorted((out / "images").glob("*.csar"))
    assert [p.stem for p in images] == ["chip_00000", "chip_00001"]
    for img in images:
        chip = read_chip(img)
        assert (chip.height, chip.width) == (32, 32)
        (ann,) = parse_annotation(out / "annots" / f"{img.stem}.txt")
        truth = parse_truth(out / "truth" / f"{img.stem}.txt")
        assert 2 <= len(truth) <= 4
        assert ann.class_name == "scatterer"
    assert "wrote 2 chips" in capsys.readouterr().out


def test_synth_amplitude_range_reaches_the_truth(tmp_path):
    out = synth(tmp_path, chips=4, dim=48, extra=("--amp-range", "0.02:1.5"))
    amps = [s.amplitude for p in sorted((out / "truth").glob("*.txt"))
            for s in parse_truth(p)]
    assert min(amps) >= 0.02 and max(amps) <= 1.5 and min(amps) < 0.5


def test_synth_manifest_records_the_dataset_flags(tmp_path):
    def stable_lines(out):
        return [ln for ln in (out / MANIFEST_NAME).read_text().splitlines()
                if not ln.startswith("timing_ms.")]

    default = synth(tmp_path, "default")
    hard = synth(tmp_path, "hard", extra=("--amp-range", "0.02:1.5", "--speckle"))
    assert [ln for ln in stable_lines(default) if ln.startswith("input.")] == [
        "input.amp_range = 0.5:1.5", "input.chips = 2", "input.dim = 32",
        "input.scatterers = 2..4", "input.speckle = False"]
    assert "input.amp_range = 0.02:1.5" in stable_lines(hard)
    assert "input.speckle = True" in stable_lines(hard)
    assert stable_lines(synth(tmp_path, "again")) == stable_lines(default)


def test_synth_and_annotate_at_the_amplitude_bound(tmp_path):
    # the largest accepted amplitudes, summed and speckled, stay finite
    data = synth(tmp_path, chips=2, dim=32, extra=("--amp-range", "9e5:1e6", "--speckle"))
    out = tmp_path / "out"
    assert run_cli("annotate", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(out), "--seed", "0") == 0
    for ann in sorted(out.glob("chip_*.txt")):
        (inst,) = parse_annotation(ann)
        assert inst.keypoints is not None


@pytest.mark.parametrize("flag", [
    "--amp-range=nan:1", "--amp-range=0.1:inf", "--amp-range=1:1",
    "--amp-range=1.5:0.5", "--amp-range=0:1", "--amp-range=-1:1",
    "--amp-range=0.5", "--amp-range=a:b", "--amp-range=1e308:1.7e308",
    "--amp-range=1:1000001",
])
def test_synth_bad_amplitude_range_is_usage_error(tmp_path, capsys, flag):
    assert usage_exit("synth", "--out", str(tmp_path / "o"), "--chips", "1",
                      "--seed", "0", flag) == 1
    err = capsys.readouterr().err
    assert "argument --amp-range:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# `annotate` outputs saved from commit 1f14f8a, whose default loop stop was
# 1e-3, on `synth --chips 8 --dim 64 --scatterers 3..12 --seed 11`, clean and
# speckled, annotated with `--seed 11`
STOP_1E3_RUN = Path(__file__).resolve().parent / "data" / "annotate_stop_1e-3"
STOP_1E3_CONFIG_SHA256 = "85c0c8ccea914414bb9e184f713fbfd30617330776936618ac14300130bebc10"


@pytest.mark.parametrize("family", ["clean", "speckled"])
def test_annotate_with_the_1e3_stop_reproduces_the_saved_run(tmp_path, family):
    extra = ("--speckle",) if family == "speckled" else ()
    assert run_cli("synth", "--out", str(tmp_path / "data"), "--chips", "8",
                   "--dim", "64", "--scatterers", "3..12", "--seed", "11", *extra) == 0
    outputs = {}
    for name, flags in [("stop-1e-3", ("--min-peak-ratio", "0.001")), ("default", ())]:
        out = tmp_path / name
        assert run_cli("annotate", "--images", str(tmp_path / "data" / "images"),
                       "--annots", str(tmp_path / "data" / "annots"),
                       "--out", str(out), "--seed", "11", *flags) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.glob("chip_*.txt"))}
    saved = {p.name: p.read_bytes() for p in sorted((STOP_1E3_RUN / family).glob("*.txt"))}
    assert len(saved) == 8
    assert outputs["stop-1e-3"] == saved
    manifest = (tmp_path / "stop-1e-3" / MANIFEST_NAME).read_text()
    assert f"config_sha256 = {STOP_1E3_CONFIG_SHA256}\n" in manifest
    # the default stop is another run
    assert outputs["default"] != saved


# `annotate` outputs at the default configuration, saved from commit a9160b7
# (each region's fit built its own support block), on the sets above
DEFAULT_RUN = Path(__file__).resolve().parent / "data" / "annotate_default"


@pytest.mark.parametrize("family", ["clean", "speckled"])
def test_annotate_with_the_default_config_reproduces_the_saved_run(tmp_path, family):
    extra = ("--speckle",) if family == "speckled" else ()
    assert run_cli("synth", "--out", str(tmp_path / "data"), "--chips", "8",
                   "--dim", "64", "--scatterers", "3..12", "--seed", "11", *extra) == 0
    out = tmp_path / "out"
    assert run_cli("annotate", "--images", str(tmp_path / "data" / "images"),
                   "--annots", str(tmp_path / "data" / "annots"),
                   "--out", str(out), "--seed", "11") == 0
    saved = {p.name: p.read_bytes() for p in sorted((DEFAULT_RUN / family).glob("*.txt"))}
    assert len(saved) == 8
    assert {p.name: p.read_bytes() for p in sorted(out.glob("chip_*.txt"))} == saved


# `eval` reports saved from commit f0e3527 (which scored each pair once for
# AP and again for PHR and precision) on a small seeded set: 3 GT images of
# 4 classes, "boat" only difficult, one image without predictions, one
# without GT, class ids no GT has, and tied scores
EVAL_RUN = Path(__file__).resolve().parent / "data" / "eval_default"


@pytest.mark.parametrize("flags, saved", [((), "report.txt"),
                                          (("--ignore-difficult",), "report_ignore_difficult.txt")])
def test_eval_reproduces_the_saved_reports(tmp_path, flags, saved):
    report = tmp_path / "report.txt"
    assert run_cli("eval", "--preds", str(EVAL_RUN / "preds.txt"), "--gts", str(EVAL_RUN / "gts"),
                   "--report", str(report), *flags) == 0
    assert report.read_bytes() == (EVAL_RUN / saved).read_bytes()


@pytest.mark.parametrize("flags, saved", [((), "report.txt"),
                                          (("--ignore-difficult",), "report_ignore_difficult.txt")])
def test_eval_map_is_the_mean_of_the_reported_class_aps(tmp_path, monkeypatch, flags, saved):
    """The report's `map50` is `mean_ap` of its per-class APs bit for bit,
    and renders as the saved report's `map` line."""
    reports = []

    def recording(*args):
        reports.append(metrics.evaluate_detections(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "evaluate_detections", recording)
    assert run_cli("eval", "--preds", str(EVAL_RUN / "preds.txt"), "--gts", str(EVAL_RUN / "gts"),
                   "--report", str(tmp_path / "report.txt"), *flags) == 0
    (report,) = reports
    assert "map50" not in {f.name for f in dataclasses.fields(report)}
    assert len(report.per_class_ap) > 1
    assert report.map50.hex() == mean_ap(report.per_class_ap).hex()
    assert f"\nmap = {report.map50:.6f}\n" in (EVAL_RUN / saved).read_text()


@pytest.mark.parametrize("flag, value", [("--chips", "0"), ("--chips", "-1"),
                                         ("--dim", "0"), ("--dim", "-3")])
def test_synth_non_positive_chips_or_dim_is_usage_error(tmp_path, capsys, flag, value):
    args = {"--chips": "1", "--dim": "32", flag: value}
    assert usage_exit("synth", "--out", str(tmp_path / "o"), "--seed", "0",
                      *(f"{k}={v}" for k, v in args.items())) == 1
    out, err = capsys.readouterr()
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert "wrote" not in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dim", ["1", "8"])
def test_synth_dim_within_the_placement_border_is_usage_error(tmp_path, capsys, dim):
    assert usage_exit("synth", "--out", str(tmp_path / "o"), "--chips", "1", "--seed", "0",
                      "--dim", dim) == 1
    err = capsys.readouterr().err
    assert f"argument --dim: must exceed 8, twice the 4 px placement border, got {dim}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # one pixel past the border on each side places a scatterer
    assert run_cli("synth", "--out", str(tmp_path / "o9"), "--chips", "1", "--seed", "0",
                   "--dim", "9", "--scatterers", "1..1") == 0


def test_synth_rerun_is_byte_identical(tmp_path):
    a = synth(tmp_path, "a")
    b = synth(tmp_path, "b")
    for sub in ("images", "annots", "truth"):
        for pa in sorted((a / sub).iterdir()):
            assert (b / sub / pa.name).read_bytes() == pa.read_bytes()


def test_annotate_pipeline(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "skaa"
    code = run_cli("annotate", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(out),
                   "--seed", "0")
    assert code == 0
    assert "annotated 2 instances (0 kept unchanged)" in capsys.readouterr().out
    assert (out / MANIFEST_NAME).is_file()
    for stem in ("chip_00000", "chip_00001"):
        (ann,) = parse_annotation(out / f"{stem}.txt")
        assert ann.keypoints is not None and ann.keypoints.k == 9


def test_annotate_flag_overrides_config_file(tmp_path):
    data = synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("keypoint_k = 4\n")
    out_cfg = tmp_path / "via_cfg"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(out_cfg),
            "--seed", "0", "--config", str(cfg))
    (ann,) = parse_annotation(out_cfg / "chip_00000.txt")
    assert ann.keypoints.k == 4
    out_flag = tmp_path / "via_flag"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(out_flag),
            "--seed", "0", "--config", str(cfg), "--keypoints", "3")
    (ann,) = parse_annotation(out_flag / "chip_00000.txt")
    assert ann.keypoints.k == 3


def test_annotate_debug_dump(tmp_path):
    data = synth(tmp_path, chips=1)
    out = tmp_path / "skaa"
    debug = tmp_path / "debug"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(out),
            "--seed", "0", "--nmax", "3", "--debug-dir", str(debug))
    assert sorted(p.name for p in debug.iterdir()) == \
        ["chip_00000_000_amplitude.csar", "chip_00000_000_supports.txt"]
    assert 1 <= len((debug / "chip_00000_000_supports.txt").read_text().splitlines()) <= 3


def test_debug_dump_beyond_float32_keeps_its_instance_unchanged(tmp_path, caplog):
    """A crop whose amplitude overflows float32 cannot be dumped: that
    instance is a logged data error, kept unchanged, and no dump file of it
    is left behind; the other instances annotate as without the flag."""
    data = synth(tmp_path, chips=2)
    chip = data / "images" / "chip_00000.csar"
    samples = read_chip(chip).samples.copy()
    samples[16, 16] = 3e38 + 3e38j  # each part fits float32, the modulus does not
    write_chip(ComplexRaster(samples), chip)
    args = ("annotate", "--images", str(data / "images"), "--annots", str(data / "annots"),
            "--seed", "0")
    assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
    debug = tmp_path / "debug"
    assert run_cli(*args, "--out", str(tmp_path / "dumped"), "--debug-dir", str(debug)) == 0
    assert "chip_00000_000_amplitude.csar: a sample lies beyond float32's range" in caplog.text
    assert sorted(p.name for p in debug.iterdir()) == \
        ["chip_00001_000_amplitude.csar", "chip_00001_000_supports.txt"]
    assert (tmp_path / "dumped" / "chip_00000.txt").read_bytes() == \
        (data / "annots" / "chip_00000.txt").read_bytes()
    assert (tmp_path / "dumped" / "chip_00001.txt").read_bytes() == \
        (tmp_path / "plain" / "chip_00001.txt").read_bytes()


def _debug_inputs(tmp_path, kind):
    """A dataset directory of `kind`: complex chips clean or speckled, a
    multi-target scene, 8-bit PGM chips, or amplitude chips scaled by 0.01,
    where the grow test's absolute `eps` lets a support take pixels an
    earlier step already lifted."""
    if kind == "multi":
        _scene(tmp_path / "data", seed=3)
        return tmp_path / "data"
    data = synth(tmp_path, chips=2, dim=48, extra=("--speckle",) if kind == "speckled" else ())
    if kind == "pgm8":
        _amplitude_copy(data, tmp_path / "pgm8", "pgm8")
        return tmp_path / "pgm8"
    if kind == "scaled":
        for img_path in (data / "images").iterdir():
            write_chip(AmplitudeRaster(amplitude(read_chip(img_path)).values * 0.01), img_path)
    return data


def test_annotate_debug_dump_equals_dense_oracle(tmp_path):
    """Every step's residual and 0/1 support, rebuilt from an instance's
    two dump files, equals the dense extraction loop's, bit for bit after
    the float32 rounding of the chip format, on every kind of input."""
    for kind in ("clean", "speckled", "multi", "pgm8", "scaled"):
        (tmp_path / kind).mkdir()
        retaken = _check_debug_dump(tmp_path / kind, kind)
        assert (retaken > 0) == (kind == "scaled"), kind


def _check_debug_dump(tmp_path, kind) -> int:
    """Check one input kind's dump against the dense oracle; return the
    number of pixels a support shares with an earlier step's."""
    data = _debug_inputs(tmp_path, kind)
    debug = tmp_path / "debug"
    assert run_cli("annotate", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(tmp_path / "skaa"),
                   "--seed", "0", "--nmax", "6", "--debug-dir", str(debug)) == 0
    names, retaken = [], 0
    for img_path in sorted((data / "images").iterdir()):
        image = read_chip(img_path)
        for i, ann in enumerate(parse_annotation(data / "annots" / f"{img_path.stem}.txt")):
            stem = f"{img_path.stem}_{i:03d}"
            names += [f"{stem}_amplitude.csar", f"{stem}_supports.txt"]
            amp = amplitude(crop_chip(image, ann.box)[0])
            steps = list(decouple_steps_dense(amp, DecoupleParams(n_max=6)))
            residual = read_chip(debug / f"{stem}_amplitude.csar").values.copy()
            assert residual.astype(np.float32).tobytes() == amp.values.astype(np.float32).tobytes()
            lines = (debug / f"{stem}_supports.txt").read_text().splitlines()
            assert len(lines) == len(steps) >= 1
            taken = np.zeros(residual.shape, dtype=bool)
            for line, step in zip(lines, steps):
                idx = np.array(line.split(), dtype=np.int64)
                assert (np.diff(idx) > 0).all()
                support = np.zeros(residual.shape, dtype=bool)
                support.ravel()[idx] = True
                retaken += int((support & taken).sum())
                taken |= support
                residual[support] = 0.0
                assert residual.astype(np.float32).tobytes() == \
                    step.residual.astype(np.float32).tobytes()
                assert np.array_equal(support, step.support)
    assert sorted(p.name for p in debug.iterdir()) == sorted(names)
    return retaken


@pytest.mark.parametrize("line", ["decouple.eps = nan", "window.sidelobe_db = nan",
                                  "dog.sigma2 = inf"])
def test_annotate_non_finite_config_is_data_error(tmp_path, line):
    data = synth(tmp_path, chips=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scatterkit.cli", "annotate", "--config", str(cfg),
         "--images", str(data / "images"), "--annots", str(data / "annots"),
         "--out", str(out), "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "must be finite" in proc.stderr
    assert not out.exists()


def test_annotate_non_ascii_config_is_data_error(tmp_path, capsys):
    data = synth(tmp_path, chips=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# r\u00e9glage\nkeypoint_k = 4\n".encode("utf-8"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("annotate", "--config", str(cfg), "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(out),
                   "--seed", "0") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(cfg) in err
    assert not out.exists()


def _serve_fifo(path, text):
    """Make `path` a FIFO that gives `text` to its first reader and nothing
    to any later one, as a shell's `<(echo ...)` pipe reads when opened
    again; returns the function that stops serving."""
    os.mkfifo(path)
    stop = threading.Event()

    def serve():
        payload = text.encode("ascii")
        while not stop.is_set():
            try:
                fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:  # no reader yet
                time.sleep(0.001)
                continue
            os.write(fd, payload)
            os.close(fd)
            payload = b""
            time.sleep(0.001)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def stop_serving():
        stop.set()
        thread.join()
    return stop_serving


def test_a_fifo_record_file_whose_last_line_is_bad_fails_as_a_regular_file_does(
        tmp_path, capsys):
    """A record file is read once, on the error path too: a FIFO, which
    gives its text to its first reader only, gets the error a regular file
    with that text gets, from `eval --preds` and from `parse_annotation`."""
    box = "0 0 4 0 4 4 0 4"
    preds_text = f"img0 0 0.9 {box}\nimg0 0 0.8 {box}\nimg0 0 1.5 {box}\n"
    ann_text = f"{box} tank 0\n{box} ship 0 kp 1 1 9 9\n"  # (9, 9) lies past the 2 px
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text(f"{box} tank 0\n")
    outcomes, errors = [], []
    for form in ("file", "fifo"):
        preds, ann = tmp_path / f"preds-{form}.txt", tmp_path / f"ann-{form}.txt"
        if form == "file":
            preds.write_text(preds_text)
            ann.write_text(ann_text)
            stops = []
        else:
            stops = [_serve_fifo(preds, preds_text), _serve_fifo(ann, ann_text)]
        try:
            code = run_cli("eval", "--preds", str(preds), "--gts", str(gts))
            with pytest.raises(MalformedLine) as exc:
                parse_annotation(ann)
        finally:
            for stop_serving in stops:
                stop_serving()
        outcomes.append((code, capsys.readouterr().err.replace(str(preds), "PREDS")))
        errors.append((type(exc.value), str(exc.value), exc.value.line_no))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (3, "scatterkit: data error: line 3: score must lie in [0, 1], "
                              "got 1.5\n")
    assert errors[0] == errors[1]
    assert errors[0][1:] == ("line 2: keypoint (9.0, 9.0) outside box AABB "
                             "[-2.0, 6.0]x[-2.0, 6.0]", 2)


@pytest.mark.parametrize("command", ["eval", "heatmap", "keypoint-compare"])
def test_a_directory_named_like_an_annotation_file_is_skipped(tmp_path, capsys, command):
    """A `*.txt` directory among the annotation files is not one: each
    command that lists them skips it, as `index_dataset` skips a non-file,
    and prints what it prints without it."""
    data = synth(tmp_path)
    skaa = tmp_path / "skaa"
    assert run_cli("annotate", "--images", str(data / "images"), "--annots",
                   str(data / "annots"), "--out", str(skaa), "--seed", "0") == 0
    preds = tmp_path / "preds.txt"
    preds.write_text("chip_00000 0 0.9 0 0 4 0 4 4 0 4\n")
    listed, argv = {
        "eval": (data / "annots", ("eval", "--preds", str(preds), "--gts",
                                   str(data / "annots"))),
        "heatmap": (skaa, ("heatmap", "--annots", str(skaa), "--dims", "32x32",
                           "--out", str(tmp_path / "maps"))),
        "keypoint-compare": (data / "truth", ("eval", "--keypoint-compare", "--annots-a",
                                              str(skaa), "--annots-b", str(skaa),
                                              "--truth", str(data / "truth"))),
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    want = capsys.readouterr()
    if command == "heatmap":
        assert "for 2 annotation files" in want.out
    (listed / "old.txt").mkdir()
    assert run_cli(*argv) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("text", [
    "supervision.loss_weight = 1.0\n",   # unknown key
    "decouple.tau_db = 0\n",             # out of range without the flags
], ids=["unknown-key", "out-of-range"])
def test_fifo_config_fails_as_a_regular_file_does(tmp_path, capsys, text):
    """--config is read once: a FIFO gets the config error (exit 3) a
    regular file with the same text gets, not a usage error from reading it
    empty the second time."""
    outcomes = []
    for form in ("file", "fifo"):
        cfg = tmp_path / f"run-{form}.cfg"
        if form == "file":
            cfg.write_text(text)
        else:
            stop_serving = _serve_fifo(cfg, text)
        try:
            code = run_cli("synth", "--out", str(tmp_path / form), "--chips", "1",
                           "--dim", "16", "--seed", "0", "--config", str(cfg))
        finally:
            if form == "fifo":
                stop_serving()
        outcomes.append((code, capsys.readouterr().err.replace(str(cfg), "CFG")))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 3 and "bad config field" in err and "argument" not in err
    assert not (tmp_path / "fifo").exists()


def test_fifo_config_with_a_bad_flag_names_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    stop_serving = _serve_fifo(cfg, "keypoint_k = 4\n")
    try:
        assert usage_exit("annotate", "--config", str(cfg), "--images", str(tmp_path),
                          "--annots", str(tmp_path), "--out", str(tmp_path / "out"),
                          "--seed", "0", "--nmax", "0") == 1
    finally:
        stop_serving()
    assert "argument --nmax:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, named", [
    ("annotate", ("--tau", "0"), "--tau"),
    ("annotate", ("--nmax", "0"), "--nmax"),
    ("annotate", ("--min-peak-ratio", "-1"), "--min-peak-ratio"),
    ("annotate", ("--min-peak-ratio", "inf"), "--min-peak-ratio"),
    ("annotate", ("--min-peak-ratio", "1.5"), "--min-peak-ratio"),
    ("annotate", ("--keypoints", "0"), "--keypoints"),
    ("annotate", ("--threads", "0"), "--threads"),
], ids=["tau", "nmax", "negative-ratio", "infinite-ratio", "ratio-above-one", "keypoints",
        "threads"])
def test_out_of_range_flag_value_is_usage_error(tmp_path, capsys, command, flags, named):
    seed = ("--seed", "0") if command == "annotate" else ()
    assert usage_exit(command, "--images", str(tmp_path / "images"),
                      "--annots", str(tmp_path / "annots"), "--out", str(tmp_path / "out"),
                      *seed, *flags) == 1
    err = capsys.readouterr().err
    assert f"argument {named}:" in err and "--seed" not in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_flag_overrides_an_out_of_range_config_value(tmp_path, capsys):
    data = synth(tmp_path, chips=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("decouple.tau_db = 0\n")
    args = ("annotate", "--config", str(cfg), "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--seed", "0")
    capsys.readouterr()
    assert run_cli(*args, "--out", str(tmp_path / "bad")) == 3
    assert "tau_db must be negative" in capsys.readouterr().err
    assert run_cli(*args, "--out", str(tmp_path / "good"), "--tau", "-3") == 0


def test_config_peak_ratio_above_one_is_data_error(tmp_path, capsys):
    # the first step's peak is the original peak: a ratio above 1 runs no step
    data = synth(tmp_path, chips=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("decouple.min_peak_ratio = 1.5\n")
    capsys.readouterr()
    assert run_cli("annotate", "--config", str(cfg), "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(tmp_path / "out"),
                   "--seed", "0") == 3
    assert "min_peak_ratio must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["keypoint_k = 4\ngarbage\n", "decouple.n_maxx = 5\n",
                                  "keypoint_k = four\n", "supervision.loss_weight = 1.0\n",
                                  "threads = 1\n"],
                         ids=["no-equals", "unknown-key", "unparseable", "retired-key",
                              "retired-threads"])
def test_annotate_config_line_error_names_the_file(tmp_path, capsys, text):
    data = synth(tmp_path, chips=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("annotate", "--config", str(cfg), "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(out),
                   "--seed", "0") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{cfg}: bad config field" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["annotate", "baseline-dog", "bench"])
def test_two_images_with_one_stem_are_a_data_error_before_any_write(tmp_path, capsys, command):
    data = synth(tmp_path, chips=2)
    pgm = data / "images" / "chip_00000.pgm"
    pgm.write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
    out = ("--out", str(tmp_path / "out")) if command != "bench" else ()
    seed = ("--seed", "0") if command == "annotate" else ()
    debug = ("--debug-dir", str(tmp_path / "debug")) if command == "annotate" else ()
    capsys.readouterr()
    assert run_cli(command, "--images", str(data / "images"), "--annots",
                   str(data / "annots"), *out, *seed, *debug) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"images {data / 'images' / 'chip_00000.csar'} and {pgm} share the stem" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("argv", [
    ("baseline-dog", "--images", "IN", "--annots", "IN", "--out", "OUT", "--threads", "1"),
    ("bench", "--images", "IN", "--annots", "IN", "--threads", "1"),
    ("eval", "--preds", "IN/p.txt", "--gts", "IN", "--config", "IN/run.cfg"),
], ids=["baseline-dog-threads", "bench-threads", "eval-config"])
def test_a_retired_flag_is_usage_error(tmp_path, capsys, argv):
    argv = [a.replace("IN", str(tmp_path)).replace("OUT", str(tmp_path / "out")) for a in argv]
    assert usage_exit(*argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the required flags of every subcommand that reads --config
_CONFIG_RUN_FLAGS = {"--images": "images", "--annots": "annots", "--out": "out",
                     "--chips": "1", "--seed": "0", "--dims": "16x16"}


def _config_commands() -> dict:
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    return {cmd: p for cmd, p in sub.choices.items() if "--config" in p._option_string_actions}


@pytest.mark.parametrize("command", sorted(_config_commands()))
def test_each_config_reading_command_fails_on_a_missing_or_bad_config(tmp_path, capsys,
                                                                      command):
    parser = _config_commands()[command]
    required = [a.option_strings[0] for a in parser._actions if a.required]
    assert set(required) <= set(_CONFIG_RUN_FLAGS), command
    data = synth(tmp_path, chips=1)
    argv = [command]
    for flag in required:
        value = _CONFIG_RUN_FLAGS[flag]
        argv += [flag, str(data / value) if value in ("images", "annots", "out") else value]
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("bogus_key = 1\n")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    capsys.readouterr()
    for cfg, code, message in ((tmp_path / "missing.cfg", 2, "i/o error"),
                               (bad_key, 3, "bad config field 'bogus_key'")):
        assert run_cli(*argv, "--config", str(cfg)) == code, (command, cfg.name)
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_config_is_offered_by_every_command_but_eval():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert sorted(_config_commands()) == sorted(set(sub.choices) - {"eval"})


@pytest.mark.parametrize("line, command, code, message", [
    ("window.sidelobe_db = -10000", "annotate", 3, "sidelobe level must be finite and in"),
    ("window.sidelobe_db = -10000", "synth", 3, "sidelobe level must be finite and in"),
    ("window.nbar = 500", "annotate", 3, "nbar must lie in [1, 400], got 500"),
    ("window.nbar = 500", "synth", 3, "nbar must lie in [1, 400], got 500"),
    ("window.sidelobe_db = -1", "annotate", 0, "(kept original line)"),
    ("window.sidelobe_db = -1", "synth", 3, "Taylor taper of length 20 (nbar 4, -1.0 dB)"),
], ids=["level-annotate", "level-synth", "nbar-annotate", "nbar-synth",
        "negative-taper-annotate", "negative-taper-synth"])
def test_a_window_that_cannot_be_built_is_an_exit_code_not_a_traceback(
        tmp_path, line, command, code, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    if command == "synth":
        argv = ("synth", "--out", str(out), "--chips", "1", "--dim", "20", "--seed", "0")
    else:
        data = synth(tmp_path, chips=3)
        argv = ("annotate", "--images", str(data / "images"), "--annots",
                str(data / "annots"), "--out", str(out), "--seed", "0")
    proc = _cli_process(*argv, "--config", str(cfg))
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    if code == 0:
        # each instance whose crop length has no taper keeps its line
        assert "Taylor taper of length" in proc.stderr
        assert "(0 kept unchanged)" not in proc.stdout
    else:
        assert not out.exists()


def test_a_run_whose_instances_all_fail_counts_them_in_the_manifest(tmp_path, capsys):
    """Every crop of these chips has a taper length at which a -1 dB Taylor
    taper dips below 0: the run still exits 0, and its manifest says so."""
    data = synth(tmp_path, chips=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window.sidelobe_db = -1\n")
    manifests = {}
    for name, extra in (("failed", ("--config", str(cfg))), ("good", ())):
        out = tmp_path / name
        assert run_cli("annotate", "--images", str(data / "images"), "--annots",
                       str(data / "annots"), "--out", str(out), "--seed", "0", *extra) == 0
        manifests[name] = (out / MANIFEST_NAME).read_text()
    assert "annotated 3 instances (3 kept unchanged)" in capsys.readouterr().out
    assert "\nfailed_instances = 3\n" in manifests["failed"]
    assert "failed_" not in manifests["good"]


def test_annotate_threads_do_not_change_output(tmp_path):
    data = synth(tmp_path)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(out1), "--seed", "5")
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(out4), "--seed", "5",
            "--threads", "4")
    for stem in ("chip_00000", "chip_00001"):
        assert (out4 / f"{stem}.txt").read_bytes() == \
            (out1 / f"{stem}.txt").read_bytes()


def test_baseline_dog_pipeline(tmp_path):
    data = synth(tmp_path)
    out = tmp_path / "dog"
    code = run_cli("baseline-dog", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--out", str(out))
    assert code == 0
    (ann,) = parse_annotation(out / "chip_00000.txt")
    assert ann.keypoints is not None and ann.keypoints.k == 9


def _cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "scatterkit.cli", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("form", ["flag", "config"])
def test_baseline_dog_keypoints_above_top_n_fail_before_writing(tmp_path, form):
    # the DoG baseline clusters at most dog.top_n (30) candidates
    data = synth(tmp_path)
    out = tmp_path / "dog"
    if form == "flag":
        given = ("--keypoints", "40")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("keypoint_k = 40\n")
        given = ("--config", str(cfg))
    proc = _cli_process("baseline-dog", "--images", str(data / "images"),
                        "--annots", str(data / "annots"), "--out", str(out), *given)
    assert "Traceback" not in proc.stderr
    assert "top_n (30) must be >= k (40)" in proc.stderr
    if form == "flag":
        assert proc.returncode == 1 and "argument --keypoints:" in proc.stderr
    else:
        assert proc.returncode == 3 and f"{cfg}: bad config field 'keypoint_k'" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
def test_heatmap_sigma_whose_gaussian_scale_overflows_is_rejected(tmp_path, form, sigma):
    # 2 sigma^2 underflows to 0 at 1e-200 and to a subnormal at 1e-160, where
    # a keypoint on a pixel centre made 0 * inf = NaN
    annots = tmp_path / "annots"
    annots.mkdir()
    (annots / "a.txt").write_text("2 2 12 2 12 12 2 12 scatterer 0 kp 5 5 8 6.5\n")
    out = tmp_path / "maps"
    if form == "flag":
        given = ("--sigma", sigma)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"supervision.sigma = {sigma}\n")
        given = ("--config", str(cfg))
    proc = _cli_process("heatmap", "--annots", str(annots), "--dims", "16x16",
                        "--out", str(out), *given)
    assert "Traceback" not in proc.stderr
    assert "1 / (2 sigma^2) overflows" in proc.stderr
    if form == "flag":
        assert proc.returncode == 1 and "argument --sigma:" in proc.stderr
    else:
        assert proc.returncode == 3 and "bad config field" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("keypoints", [True, False], ids=["keypoints", "no-keypoints"])
@pytest.mark.parametrize("dims, flags, levels", [
    ("30x30", (), 4), ("32x12", (), 4), ("24x24", ("--levels", "5"), 5),
    ("18x18", ("--config", "CFG"), 3),
])
def test_heatmap_dims_not_divisible_for_the_levels_is_usage_error(tmp_path, capsys, keypoints,
                                                                  dims, flags, levels):
    annots = tmp_path / "annots"
    annots.mkdir()
    kp = " kp 5 5 8 6.5" if keypoints else ""
    (annots / "a.txt").write_text(f"2 2 12 2 12 12 2 12 scatterer 0{kp}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("supervision.levels = 3\n")
    flags = tuple(str(cfg) if f == "CFG" else f for f in flags)
    out = tmp_path / "maps"
    assert usage_exit("heatmap", "--annots", str(annots), "--dims", dims,
                      "--out", str(out), *flags) == 1
    err = capsys.readouterr().err
    assert f"argument --dims: {dims} map not divisible by 2^{levels - 1} for {levels} levels" \
        in err
    assert not out.exists()


def test_heatmap_dims_divisible_for_the_levels_are_accepted(tmp_path, capsys):
    annots = tmp_path / "annots"
    annots.mkdir()
    (annots / "a.txt").write_text("2 2 12 2 12 12 2 12 scatterer 0 kp 5 5 8 6.5\n")
    for dims, levels in (("30x30", "2"), ("16x48", "5"), ("9x11", "1")):
        out = tmp_path / f"maps-{dims}"
        assert run_cli("heatmap", "--annots", str(annots), "--dims", dims,
                       "--levels", levels, "--out", str(out)) == 0
        assert len(list(out.glob("a_L*.csar"))) == int(levels)
    out = tmp_path / "maps-40-levels"
    assert usage_exit("heatmap", "--annots", str(annots), "--dims", "16x16",
                      "--levels", "40", "--out", str(out)) == 1
    assert not out.exists()


def test_heatmap_pyramid(tmp_path, capsys):
    data = synth(tmp_path)
    skaa = tmp_path / "skaa"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(skaa), "--seed", "0")
    maps = tmp_path / "maps"
    # the annotate output dir contains a run manifest the scan must skip
    code = run_cli("heatmap", "--annots", str(skaa), "--dims", "32x32",
                   "--out", str(maps), "--levels", "3", "--png")
    assert code == 0
    assert "for 2 annotation files" in capsys.readouterr().out
    for stem in ("chip_00000", "chip_00001"):
        for lvl, side in ((0, 32), (1, 16), (2, 8)):
            m = read_chip(maps / f"{stem}_L{lvl}.csar")
            assert (m.height, m.width) == (side, side)
            assert (maps / f"{stem}_L{lvl}.pgm").is_file()


def test_heatmap_skips_annotations_without_keypoints(tmp_path, capsys):
    data = synth(tmp_path)
    maps = tmp_path / "maps"
    code = run_cli("heatmap", "--annots", str(data / "annots"),
                   "--dims", "32x32", "--out", str(maps))
    assert code == 0
    assert "for 0 annotation files" in capsys.readouterr().out


def test_heatmap_tiny_sigma_writes_point_maps_without_warnings(tmp_path):
    # d2 / (2 sigma^2) overflows to inf off the keypoints, and exp(-inf) = 0
    annots = tmp_path / "annots"
    annots.mkdir()
    (annots / "a.txt").write_text("2 2 120 2 120 120 2 120 scatterer 0 kp 5 5 100 64\n")
    out = tmp_path / "maps"
    proc = _cli_process("heatmap", "--annots", str(annots), "--dims", "128x128",
                        "--sigma", "1e-154", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    m = read_chip(out / "a_L0.csar").values
    assert np.count_nonzero(m) == 2 and m[5, 5] == m[64, 100] == 1.0


def test_heatmap_maps_the_good_files_when_one_fails(tmp_path, capsys, caplog):
    annots = tmp_path / "annots"
    annots.mkdir()
    good = "2 2 12 2 12 12 2 12 scatterer 0 kp 5 5 8 6.5\n"
    for stem in ("a", "d"):
        (annots / f"{stem}.txt").write_text(good)
    (annots / "b.txt").write_text("2 2 12 2 12 12 2 12 scatterer 0 kp 5 5 15 6\n")
    (annots / "c.txt").write_text("2 2 12 2 12 12 2 12 scatterer 0 kp 5\n")
    out = tmp_path / "maps"
    code = run_cli("heatmap", "--annots", str(annots), "--dims", "16x12",
                   "--levels", "2", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 3
    assert "for 2 annotation files" in captured.out
    assert "2 annotation file(s) failed" in captured.err
    assert "Traceback" not in captured.err
    assert "b.txt" in caplog.text and "c.txt" in caplog.text
    assert sorted(p.name for p in out.glob("*.csar")) == [
        "a_L0.csar", "a_L1.csar", "d_L0.csar", "d_L1.csar"]
    assert "failed_files = 2\n" in (out / MANIFEST_NAME).read_text()


def _write_perfect_predictions(data, path):
    lines = []
    for ann_path in sorted((data / "annots").glob("*.txt")):
        (ann,) = parse_annotation(ann_path)
        corners = " ".join(f"{v:.6g}" for v in ann.box.corners.ravel())
        lines.append(f"{ann_path.stem} 0 0.9 {corners}")
    path.write_text("\n".join(lines) + "\n")


def test_eval_detections_perfect_predictor(tmp_path, capsys):
    data = synth(tmp_path)
    preds = tmp_path / "preds.txt"
    _write_perfect_predictions(data, preds)
    report_path = tmp_path / "report.txt"
    capsys.readouterr()  # drop setup output
    code = run_cli("eval", "--preds", str(preds), "--gts", str(data / "annots"),
                   "--report", str(report_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "ap class=scatterer id=0 value=1.000000" in out
    assert "map = 1.000000" in out
    assert "proposal_precision = 1.000000" in out
    assert "phr t=0.05 rate=1.000000" in out
    assert report_path.read_text() == out


def test_eval_ignore_difficult_drops_gt(tmp_path, capsys):
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text(
        "0 0 4 0 4 4 0 4 tank 0\n10 10 14 10 14 14 10 14 tank 1\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("img0 0 0.9 0 0 4 0 4 4 0 4\n")
    run_cli("eval", "--preds", str(preds), "--gts", str(gts),
            "--ignore-difficult")
    assert "map = 1.000000" in capsys.readouterr().out
    run_cli("eval", "--preds", str(preds), "--gts", str(gts))
    # with the difficult GT kept, recall tops out at 1/2
    assert "map = 0.500000" in capsys.readouterr().out


def test_eval_ignore_difficult_keeps_class_ids(tmp_path, capsys):
    # alpha has only a difficult box; beta keeps id 1 with or without it
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text(
        "0 0 4 0 4 4 0 4 alpha 1\n10 10 14 10 14 14 10 14 beta 0\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("img0 1 0.9 10 10 14 10 14 14 10 14\n")
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts)) == 0
    out = capsys.readouterr().out
    assert "ap class=alpha id=0 value=0.000000" in out
    assert "ap class=beta id=1 value=1.000000" in out
    assert "map = 0.500000" in out
    assert run_cli("eval", "--preds", str(preds), "--gts", str(gts),
                   "--ignore-difficult") == 0
    out = capsys.readouterr().out
    assert "class=alpha" not in out
    assert "ap class=beta id=1 value=1.000000" in out
    assert "map = 1.000000" in out


def test_eval_keypoint_compare(tmp_path, capsys):
    data = synth(tmp_path)
    skaa, dog = tmp_path / "skaa", tmp_path / "dog"
    run_cli("annotate", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(skaa), "--seed", "0")
    run_cli("baseline-dog", "--images", str(data / "images"),
            "--annots", str(data / "annots"), "--out", str(dog))
    report = tmp_path / "cmp.txt"
    capsys.readouterr()  # drop setup output
    code = run_cli("eval", "--keypoint-compare", "--annots-a", str(skaa),
                   "--annots-b", str(dog), "--truth", str(data / "truth"),
                   "--report", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# scatterkit keypoint comparison")
    assert "chips = 2" in out
    assert "a_win_fraction = " in out
    assert report.read_text() == out
    chip_lines = [ln for ln in out.splitlines() if ln.startswith("chip ")]
    assert len(chip_lines) == 2
    assert all("winner=" in ln for ln in chip_lines)


def test_bench_reports_timing(tmp_path, capsys):
    data = synth(tmp_path)
    code = run_cli("bench", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--repeat", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "instances = 4 (2 repeats)" in out
    assert "median_ms_per_instance = " in out


@pytest.mark.parametrize("empty", ["no-images", "no-lines"])
def test_bench_on_a_dataset_without_instances_prints_no_timings(tmp_path, capsys, empty):
    if empty == "no-images":
        data = tmp_path / "data"
        for name in ("images", "annots"):
            (data / name).mkdir(parents=True)
    else:
        data = synth(tmp_path)
        for ann in (data / "annots").glob("*.txt"):
            ann.write_text("")
    capsys.readouterr()
    assert run_cli("bench", "--images", str(data / "images"),
                   "--annots", str(data / "annots"), "--repeat", "2") == 0
    assert capsys.readouterr() == ("instances = 0 (2 repeats)\n", "")


@pytest.mark.parametrize("repeat", ["0", "-2", "1.5", "x"])
def test_bench_repeat_below_one_is_usage_error(tmp_path, capsys, repeat):
    data = synth(tmp_path)
    capsys.readouterr()
    assert usage_exit("bench", "--images", str(data / "images"),
                      "--annots", str(data / "annots"), f"--repeat={repeat}") == 1
    out, err = capsys.readouterr()
    assert "argument --repeat:" in err
    assert "nan" not in out + err and "Traceback" not in err
    assert "median_ms_per_instance" not in out


def test_module_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "scatterkit.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()
