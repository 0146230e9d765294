"""scatterkit command-line interface.

Subcommands: synth (generate a synthetic dataset), annotate (physics
keypoint pipeline), baseline-dog (DoG keypoint pipeline), heatmap
(supervision map pyramid), eval (detection metrics or keypoint comparison),
bench (annotation throughput). Exit codes: 0 success, 1 usage error,
2 I/O error, 3 data-format error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .annotio import (InstanceAnnotation, RunSummary, index_dataset,
                      parse_annotation, parse_predictions, parse_truth, run_dog,
                      run_skaa, write_annotation, write_truth)
from .ascmodel import SYNTH_BORDER_PX, FrequencyGrid, synth_target
from .chipio import write_atomic, write_chip, write_pgm
from .config import MANIFEST_NAME, RunConfig, _file_values, _with_overrides, emit_manifest
from .errors import BadConfigField, ScatterKitError
from .keypoints import KeypointSet, _check_top_n, instance_seed
from .metrics import evaluate_detections, mean_nearest_distance
from .spectral import taylor_window_2d
from .supervision import _pyramid_fits, downsample_pyramid, gt_scatter_map

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_DATA = 0, 1, 2, 3

log = logging.getLogger("scatterkit")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 1 <= MIN <= MAX, got {text!r}")
    return lo, hi


def _dims(text: str) -> tuple[int, int]:
    try:
        h_s, w_s = text.lower().split("x")
        h, w = int(h_s), int(w_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None
    if h < 1 or w < 1:
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return h, w


# far above any physical gain, and low enough that no chip's field overflows
_MAX_AMPLITUDE = 1e6


def _amp_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if not 0 < lo < hi <= _MAX_AMPLITUDE:
        raise argparse.ArgumentTypeError(
            f"need 0 < LO < HI <= {_MAX_AMPLITUDE:g}, got {text!r}")
    return lo, hi


def _iou_threshold(text: str) -> float:
    try:
        thr = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(thr) and 0 < thr < 1):
        raise argparse.ArgumentTypeError(f"IoU threshold must lie in (0, 1), got {text!r}")
    return thr


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


# A sweep lists every threshold by repeated addition. Over [0, 1] this STEP
# floor bounds the list to 10,001 thresholds and keeps every addition above
# float rounding; a smaller STEP can stall `t` and grow the list unbounded.
_MIN_SWEEP_STEP = 1e-4


def _threshold_sweep(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:STEP, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"sweep parts must be finite, got {text!r}")
    if not 0 <= start <= stop <= 1:
        raise argparse.ArgumentTypeError(
            f"need 0 <= START <= STOP <= 1, got {text!r}")
    if step < _MIN_SWEEP_STEP:
        raise argparse.ArgumentTypeError(
            f"need STEP >= {_MIN_SWEEP_STEP:g}, got {text!r}")
    out, t = [], start
    while t <= stop + 1e-12:
        out.append(round(t, 10))
        t += step
    return tuple(out)


def _config_from(args: argparse.Namespace, **flag_to_key) -> RunConfig:
    """Load --config (or defaults), then lay explicitly-given flags on top.

    The file is read once. A configuration that fails validation only with
    the flags on top is a usage error naming each flag whose value alone
    makes it fail; a config file that fails without them stays a config
    error.
    """
    given = {flag: (key, getattr(args, flag)) for flag, key in flag_to_key.items()
             if getattr(args, flag, None) is not None}
    file_values = _file_values(args.config)
    try:
        return _with_overrides(file_values, dict(given.values()))
    except BadConfigField as exc:
        _with_overrides(file_values)  # a file that fails alone stays a config error
        bad = [flag for flag, (key, val) in given.items()
               if _fails_validation(file_values, {key: val})]
        names = ", ".join("--" + flag.replace("_", "-") for flag in bad)
        args.parser.error(f"argument {names}: {exc.message}")


def _fails_validation(file_values: dict, overrides: dict) -> bool:
    try:
        _with_overrides(file_values, overrides)
    except BadConfigField:
        return True
    return False


def _write_report(text: str, path: str | None) -> None:
    sys.stdout.write(text)
    if path:
        write_atomic(path, text)


def _annotation_files(directory: Path) -> list[Path]:
    """All *.txt annotation files, skipping any run manifest and any
    directory; a FIFO is kept, as the readers read it once."""
    return sorted(p for p in directory.glob("*.txt")
                  if p.name != MANIFEST_NAME and not p.is_dir())


def _keypoints_of(ann_path: Path) -> list[tuple[float, float]]:
    """Every keypoint of an annotation file, in file order."""
    pts = []
    for inst in parse_annotation(ann_path):
        if inst.keypoints is not None:
            pts.extend(inst.keypoints.points)
    return pts


# ---------------------------------------------------------------- synth

def cmd_synth(args: argparse.Namespace) -> int:
    config = _config_from(args, seed="master_seed")
    if args.dim <= 2 * SYNTH_BORDER_PX:
        args.parser.error(f"argument --dim: must exceed {2 * SYNTH_BORDER_PX:g}, twice the "
                          f"{SYNTH_BORDER_PX:g} px placement border, got {args.dim}")
    grid = FrequencyGrid(height=args.dim, width=args.dim)
    window = taylor_window_2d(args.dim, args.dim, nbar=config.window_nbar,
                              sidelobe_db=config.window_sidelobe_db)
    lo, hi = args.scatterers
    out = Path(args.out)
    images, annots, truth = out / "images", out / "annots", out / "truth"
    for d in (images, annots, truth):
        d.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    for i in range(args.chips):
        chip_id = f"chip_{i:05d}"
        rng = np.random.Generator(np.random.PCG64(
            instance_seed(config.master_seed, chip_id, 0)))
        n = int(rng.integers(lo, hi + 1))
        chip = synth_target(n, grid, window, rng, amplitude_range=args.amp_range,
                            speckle=args.speckle)
        write_chip(chip.image, images / f"{chip_id}.csar")
        write_annotation(
            [InstanceAnnotation(box=chip.box, class_name=chip.class_name,
                                difficulty=chip.difficulty)],
            annots / f"{chip_id}.txt")
        write_truth(list(chip.truth), truth / f"{chip_id}.txt")
    total_ms = (time.perf_counter() - t0) * 1e3
    inputs = {"chips": args.chips, "dim": args.dim, "scatterers": f"{lo}..{hi}",
              "speckle": args.speckle, "amp_range": "{}:{}".format(*args.amp_range)}
    emit_manifest(config, {"synth_total": total_ms}, out / "run-manifest.txt",
                  inputs=inputs)
    print(f"wrote {args.chips} chips ({args.dim}x{args.dim}, "
          f"{lo}..{hi} scatterers) under {out}")
    return EXIT_OK


# ------------------------------------------------------------- annotate

def _skaa_kwargs(config: RunConfig) -> dict:
    """The keyword arguments `run_skaa` takes from a run configuration."""
    return dict(master_seed=config.master_seed, dec_params=config.decouple,
                k=config.keypoint_k, window_nbar=config.window_nbar,
                window_sidelobe_db=config.window_sidelobe_db)


def cmd_annotate(args: argparse.Namespace) -> int:
    config = _config_from(
        args, tau="decouple.tau_db", nmax="decouple.n_max",
        min_peak_ratio="decouple.min_peak_ratio", keypoints="keypoint_k",
        seed="master_seed")
    index = index_dataset(args.images, args.annots)
    t0 = time.perf_counter()
    summary = run_skaa(index, args.out, debug_dir=args.debug_dir, threads=args.threads,
                       **_skaa_kwargs(config))
    total_ms = (time.perf_counter() - t0) * 1e3
    return _finish_annotation_run(config, summary, "annotate_total", total_ms,
                                  Path(args.out))


def cmd_baseline_dog(args: argparse.Namespace) -> int:
    config = _config_from(args, keypoints="keypoint_k")
    try:
        _check_top_n(config.dog, config.keypoint_k)
    except ValueError as exc:
        if args.keypoints is not None:
            args.parser.error(f"argument --keypoints: {exc}")
        raise BadConfigField("keypoint_k", str(exc), path=args.config) from None
    index = index_dataset(args.images, args.annots)
    t0 = time.perf_counter()
    summary = run_dog(index, args.out, master_seed=config.master_seed,
                      dog_params=config.dog, k=config.keypoint_k)
    total_ms = (time.perf_counter() - t0) * 1e3
    return _finish_annotation_run(config, summary, "baseline_total", total_ms,
                                  Path(args.out))


def _finish_annotation_run(config: RunConfig, summary: RunSummary, total_name: str,
                           total_ms: float, out: Path) -> int:
    """Manifest and summary line of annotate/baseline-dog; exit 3 if an image failed.

    The manifest gains a `failed_images` line only when an image failed, and
    a `failed_instances` line only when an instance was kept unchanged.
    """
    counts = {name: n for name, n in (("failed_images", summary.failed_images),
                                      ("failed_instances", summary.failures)) if n}
    emit_manifest(config, {total_name: total_ms, "instance_mean": summary.mean_ms},
                  out / "run-manifest.txt", counts=counts)
    print(f"annotated {summary.instances} instances "
          f"({summary.failures} kept unchanged), "
          f"mean {summary.mean_ms:.1f} ms/instance")
    if summary.failed_images:
        print(f"scatterkit: data error: {summary.failed_images} image(s) could not "
              f"be read; their annotation files were copied unchanged",
              file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


# -------------------------------------------------------------- heatmap

def cmd_heatmap(args: argparse.Namespace) -> int:
    config = _config_from(args, sigma="supervision.sigma",
                          levels="supervision.levels", pool="pool")
    h, w = args.dims
    levels = config.supervision.levels
    if not _pyramid_fits(h, w, levels):
        args.parser.error(f"argument --dims: {h}x{w} map not divisible by "
                          f"2^{levels - 1} for {levels} levels")
    annots_dir = Path(args.annots)
    if not annots_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {annots_dir}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = failed = 0
    t0 = time.perf_counter()
    for ann_path in _annotation_files(annots_dir):
        try:
            points = _keypoints_of(ann_path)
            if not points:
                log.warning("%s: no keypoints, skipped", ann_path.name)
                continue
            kps = KeypointSet(points=tuple(points))
            m = gt_scatter_map(kps, h, w, sigma=config.supervision.sigma)
        except ScatterKitError as exc:
            log.warning("%s: %s (no maps written)", ann_path.name, exc)
            failed += 1
            continue
        levels = downsample_pyramid(m, config.supervision.levels, pool=config.pool)
        for lvl, sm in enumerate(levels):
            stem = f"{ann_path.stem}_L{lvl}"
            write_chip(sm, out / f"{stem}.csar")
            if args.png:
                write_pgm(sm.values, out / f"{stem}.pgm")
        written += 1
    total_ms = (time.perf_counter() - t0) * 1e3
    emit_manifest(config, {"heatmap_total": total_ms}, out / "run-manifest.txt",
                  counts={"failed_files": failed} if failed else None)
    print(f"wrote {config.supervision.levels}-level pyramids "
          f"for {written} annotation files under {out}")
    if failed:
        print(f"scatterkit: data error: {failed} annotation file(s) failed and got "
              f"no maps", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


# ----------------------------------------------------------------- eval

def _load_gt_annotations(gts_dir: Path) -> dict[str, list[InstanceAnnotation]]:
    if not gts_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {gts_dir}")
    return {path.stem: parse_annotation(path) for path in _annotation_files(gts_dir)}


def _eval_detections(args: argparse.Namespace) -> int:
    preds = parse_predictions(args.preds)
    gts = _load_gt_annotations(Path(args.gts))

    # class ids rank every GT class name, difficult instances included, so
    # --ignore-difficult never renumbers them
    class_ids = {name: i for i, name in enumerate(
        sorted({a.class_name for annots in gts.values() for a in annots}))}
    if args.ignore_difficult:
        gts = {img: [a for a in annots if a.difficulty == 0] for img, annots in gts.items()}
    report = evaluate_detections(
        preds, {img: [(a.class_name, a.box) for a in annots] for img, annots in gts.items()},
        class_ids, args.iou, args.phr)
    _write_report(report.render(), args.report)
    return EXIT_OK


def _eval_keypoint_compare(args: argparse.Namespace) -> int:
    truth_dir = Path(args.truth)
    if not truth_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {truth_dir}")
    dir_a, dir_b = Path(args.annots_a), Path(args.annots_b)

    lines = [
        "# scatterkit keypoint comparison",
        "# per chip: mean distance from each truth scatterer to its nearest "
        "keypoint, px",
        f"# a = {dir_a}",
        f"# b = {dir_b}",
    ]
    wins_a = wins_b = ties = 0
    for truth_path in _annotation_files(truth_dir):
        stem = truth_path.stem
        truth = parse_truth(truth_path)
        truth_xy = [(s.x, s.y) for s in truth]
        kp_a = _keypoints_of(dir_a / f"{stem}.txt")
        kp_b = _keypoints_of(dir_b / f"{stem}.txt")
        if not truth_xy or not kp_a or not kp_b:
            log.warning("%s: empty truth or keypoints, skipped", stem)
            continue
        da = mean_nearest_distance(truth_xy, kp_a)
        db = mean_nearest_distance(truth_xy, kp_b)
        if da < db:
            winner = "a"
            wins_a += 1
        elif db < da:
            winner = "b"
            wins_b += 1
        else:
            winner = "tie"
            ties += 1
        lines.append(f"chip {stem} a={da:.6g} b={db:.6g} winner={winner}")

    total = wins_a + wins_b + ties
    lines += [
        f"chips = {total}",
        f"a_wins = {wins_a}",
        f"b_wins = {wins_b}",
        f"ties = {ties}",
        f"a_win_fraction = {wins_a / total:.6f}" if total else "a_win_fraction = nan",
    ]
    _write_report("\n".join(lines) + "\n", args.report)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.keypoint_compare:
        if not (args.annots_a and args.annots_b and args.truth):
            args.parser.error("--keypoint-compare requires --annots-a, "
                              "--annots-b, and --truth")
        return _eval_keypoint_compare(args)
    if not (args.preds and args.gts):
        args.parser.error("eval requires --preds and --gts (or --keypoint-compare)")
    return _eval_detections(args)


# ---------------------------------------------------------------- bench

def cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from(args, seed="master_seed", nmax="decouple.n_max")
    index = index_dataset(args.images, args.annots)
    all_ms = []
    failed_images = 0
    for _ in range(args.repeat):
        with tempfile.TemporaryDirectory() as scratch:
            summary = run_skaa(index, scratch, **_skaa_kwargs(config))
        all_ms.extend(summary.instance_ms)
        failed_images += summary.failed_images
    if failed_images:
        print(f"scatterkit: data error: {failed_images} image read(s) failed",
              file=sys.stderr)
        return EXIT_DATA
    print(f"instances = {len(all_ms)} ({args.repeat} repeats)")
    if not all_ms:
        return EXIT_OK
    print(f"median_ms_per_instance = {np.median(all_ms):.2f}")
    print(f"mean_ms_per_instance = {np.mean(all_ms):.2f}")
    return EXIT_OK


# ----------------------------------------------------------------- main

@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="scatterkit",
                     description="Physics-consistent scattering keypoints for "
                                 "SAR chips: synthesis, annotation, supervision "
                                 "maps, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, func, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", metavar="FILE", default=None,
                           help="flat key=value config file; flags override it")
        p.set_defaults(func=func, parser=p)
        return p

    p = add("synth", cmd_synth, "generate a synthetic chip dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--chips", type=_positive_int, required=True, help="number of chips")
    p.add_argument("--dim", type=_positive_int, default=128, help="chip side length (px)")
    p.add_argument("--scatterers", type=_int_range, default=(5, 15),
                   metavar="MIN..MAX", help="scatterer count range")
    p.add_argument("--seed", type=int, required=True, help="master RNG seed")
    p.add_argument("--speckle", action="store_true",
                   help="apply multiplicative exponential speckle")
    p.add_argument("--amp-range", type=_amp_range, default=(0.5, 1.5),
                   metavar="LO:HI", help="scatterer amplitude range, 0 < LO < HI <= 1e6")

    p = add("annotate", cmd_annotate, "extend annotations with physics keypoints")
    p.add_argument("--images", required=True, help="chip image directory")
    p.add_argument("--annots", required=True, help="base annotation directory")
    p.add_argument("--out", required=True, help="extended annotation directory")
    p.add_argument("--tau", type=float, default=None, help="masking threshold, dB")
    p.add_argument("--nmax", type=int, default=None, help="max regions per chip")
    p.add_argument("--min-peak-ratio", type=float, default=None,
                   help="early-stop floor relative to the original peak")
    p.add_argument("--keypoints", type=int, default=None, help="keypoints per instance")
    p.add_argument("--seed", type=int, required=True, help="master RNG seed")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for compatibility, >= 1; instances run serially")
    p.add_argument("--debug-dir", default=None,
                   help="dump each instance's amplitude and per-step supports here")

    p = add("baseline-dog", cmd_baseline_dog,
            "extend annotations with difference-of-Gaussians keypoints")
    p.add_argument("--images", required=True, help="chip image directory")
    p.add_argument("--annots", required=True, help="base annotation directory")
    p.add_argument("--out", required=True, help="extended annotation directory")
    p.add_argument("--keypoints", type=int, default=None, help="keypoints per instance")

    p = add("heatmap", cmd_heatmap, "build supervision-map pyramids")
    p.add_argument("--annots", required=True, help="extended annotation directory")
    p.add_argument("--dims", type=_dims, required=True, metavar="HxW",
                   help="map height x width")
    p.add_argument("--sigma", type=float, default=None, help="Gaussian radius (px)")
    p.add_argument("--levels", type=int, default=None, help="pyramid depth")
    p.add_argument("--pool", choices=("max", "avg"), default=None,
                   help="pyramid pooling operator")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--png", "--pgm", action="store_true", dest="png",
                   help="also write 8-bit PGM visualizations")

    p = add("eval", cmd_eval, "detection metrics or keypoint comparison", config=False)
    p.add_argument("--preds", default=None, help="prediction file")
    p.add_argument("--gts", default=None, help="ground-truth annotation directory")
    p.add_argument("--iou", type=_iou_threshold, default=0.5,
                   help="matching IoU threshold, in (0, 1)")
    p.add_argument("--phr", type=_threshold_sweep, default=_threshold_sweep("0.05:0.8:0.05"),
                   metavar="START:STOP:STEP", help="PHR threshold sweep")
    p.add_argument("--ignore-difficult", action="store_true",
                   help="drop difficulty-1 instances from the GT")
    p.add_argument("--keypoint-compare", action="store_true",
                   help="compare two keypoint annotation runs against truth")
    p.add_argument("--annots-a", default=None, help="first annotation directory")
    p.add_argument("--annots-b", default=None, help="second annotation directory")
    p.add_argument("--truth", default=None, help="scatterer truth directory")
    p.add_argument("--report", default=None, help="also write the report here")

    p = add("bench", cmd_bench, "measure annotation throughput")
    p.add_argument("--images", required=True, help="chip image directory")
    p.add_argument("--annots", required=True, help="base annotation directory")
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="dataset passes, >= 1")
    p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--nmax", type=int, default=None, help="max regions per chip")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScatterKitError as exc:
        print(f"scatterkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"scatterkit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
