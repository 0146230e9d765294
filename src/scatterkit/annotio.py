"""Annotation text formats, chip cropping, and the annotation pipelines.

The physics pipeline is composed here alone: `run_skaa` runs decouple ->
fit -> cluster on every crop, one loop pass each, with `skaa_keypoints`' own
fit and cluster code; `--debug-dir` dumps come from the same regions.

Base format is one instance per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

optionally extended with a literal ``kp`` token followed by 2k keypoint
coordinates. Floats are written with 6 significant digits. Prediction files
("image_id class_id score x1 .. y4") and scatterer truth sidecars
("x y amplitude") share the same numeric convention.
"""

from __future__ import annotations

import logging
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ascmodel import FittedScatterer, Scatterer, base_psf, fit_scatterer, lay_out_regions
from .chipio import read_chip, write_chip, write_text_atomic
from .decouple import DecoupleParams, ScatterRegion, decouple
from .errors import (BadKeypointCount, BoxOutsideImage, DegenerateBox, MalformedLine,
                     OutOfBounds, ScatterKitError)
from .keypoints import (DEFAULT_K, DogParams, KeypointSet, _check_top_n, cluster_keypoints,
                        dog_keypoints, instance_seed, to_global)
from .metrics import Detection, OrientedBox, boxes_from_corners
from .raster import AmplitudeRaster, ComplexRaster, WindowRaster, amplitude
from .spectral import DEFAULT_NBAR, DEFAULT_SIDELOBE_DB, _check_window_params, taylor_window_2d

log = logging.getLogger("scatterkit")

FLOAT_FMT = "{:.6g}"


def _fmt(v: float) -> str:
    return FLOAT_FMT.format(float(v))


@dataclass(frozen=True)
class InstanceAnnotation:
    """One labeled instance: rotated box, class, difficulty, optional keypoints."""

    box: OrientedBox
    class_name: str
    difficulty: int = 0
    keypoints: KeypointSet | None = None

    def __post_init__(self):
        if not self.class_name or any(c.isspace() for c in self.class_name):
            raise ValueError(f"bad class name {self.class_name!r}")
        if self.difficulty not in (0, 1):
            raise ValueError(f"difficulty must be 0 or 1, got {self.difficulty}")
        if self.keypoints is not None:
            xmin, ymin, xmax, ymax = self.box.bounds
            x0, y0, x1, y1 = xmin - 2.0, ymin - 2.0, xmax + 2.0, ymax + 2.0
            for x, y in self.keypoints.points:
                if not (x0 <= x <= x1 and y0 <= y <= y1):
                    raise OutOfBounds(
                        f"keypoint ({x}, {y}) outside box AABB "
                        f"[{x0}, {x1}]x[{y0}, {y1}]")


def _ascii_lines(path: str | Path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line:
                    yield line_no, line
        except UnicodeDecodeError as exc:
            raise MalformedLine(0, f"not ascii text: {exc}") from None


def _boxed_lines(path: str | Path, read):
    """Yield (line number, box, fields) for each non-blank line of a file.

    `read(line_no, line)` turns a line into its fields and its 8 corner
    floats, or raises. Every line is read first, then all the boxes are
    built from one (n, 4, 2) stack of the corners (`boxes_from_corners`). A
    line that fails to read stops the reading, but it is raised only after
    the earlier lines are yielded: a degenerate box (MalformedLine) or a
    caller's error on an earlier line comes first, so the error raised is
    always the first bad line's.
    """
    lines, corners = [], []
    try:
        for line_no, line in _ascii_lines(path):
            fields, nums = read(line_no, line)
            lines.append((line_no, fields))
            corners.append(nums)
        unread = None
    except (ScatterKitError, OSError) as exc:
        unread = exc
    stack = np.array(corners, dtype=np.float64).reshape(-1, 4, 2)
    for (line_no, fields), box in zip(lines, boxes_from_corners(stack)):
        if isinstance(box, DegenerateBox):
            raise MalformedLine(line_no, str(box))
        yield line_no, box, fields
    if unread is not None:
        raise unread


def parse_annotation(path: str | Path) -> list[InstanceAnnotation]:
    """Read one annotation file; blank lines are ignored. The file's boxes
    are built in one pass (`_boxed_lines`)."""
    out = []
    for line_no, box, (class_name, difficulty, kps) in _boxed_lines(path, _annotation_fields):
        try:
            out.append(InstanceAnnotation(box=box, class_name=class_name,
                                          difficulty=difficulty, keypoints=kps))
        except (ScatterKitError, ValueError) as exc:
            raise MalformedLine(line_no, str(exc)) from None
    return out


def _annotation_fields(line_no: int, line: str) -> tuple[tuple, list[float]]:
    """(class name, difficulty, keypoints or None) and the corner floats of
    one annotation line."""
    tokens = line.split()
    if len(tokens) < 10:
        raise MalformedLine(line_no, f"expected >= 10 tokens, got {len(tokens)}")
    try:
        nums = [float(t) for t in tokens[:8]]
    except ValueError as exc:
        raise MalformedLine(line_no, f"bad corner value: {exc}") from None
    class_name = tokens[8]
    try:
        difficulty = int(tokens[9])
    except ValueError:
        raise MalformedLine(line_no, f"bad difficulty {tokens[9]!r}") from None

    kps = None
    rest = tokens[10:]
    if rest:
        if rest[0] != "kp":
            raise MalformedLine(line_no, f"unknown trailing token {rest[0]!r}")
        try:
            coords = [float(t) for t in rest[1:]]
        except ValueError as exc:
            raise MalformedLine(line_no, f"bad keypoint value: {exc}") from None
        if not coords or len(coords) % 2:
            raise BadKeypointCount(
                line_no, f"keypoint list must hold 2k numbers, got {len(coords)}")
        try:
            kps = KeypointSet(points=tuple(zip(coords[0::2], coords[1::2])))
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
    return (class_name, difficulty, kps), nums


def format_annotation(annots: list[InstanceAnnotation]) -> str:
    lines = []
    for a in annots:
        parts = [_fmt(v) for v in a.box.corners.ravel()]
        parts += [a.class_name, str(a.difficulty)]
        if a.keypoints is not None:
            parts.append("kp")
            for x, y in a.keypoints.points:
                parts += [_fmt(x), _fmt(y)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def write_annotation(annots: list[InstanceAnnotation], path: str | Path) -> None:
    write_text_atomic(path, format_annotation(annots))


def parse_truth(path: str | Path) -> list[Scatterer]:
    """Read a scatterer truth sidecar (``x y amplitude`` per line)."""
    out = []
    for line_no, line in _ascii_lines(path):
        tokens = line.split()
        if len(tokens) != 3:
            raise MalformedLine(line_no, f"expected 3 tokens, got {len(tokens)}")
        try:
            x, y, a = (float(t) for t in tokens)
            out.append(Scatterer(x=x, y=y, amplitude=a))
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
    return out


def write_truth(scatterers: list[Scatterer], path: str | Path) -> None:
    lines = [f"{_fmt(s.x)} {_fmt(s.y)} {_fmt(s.amplitude)}" for s in scatterers]
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def parse_predictions(path: str | Path) -> dict[str, list[Detection]]:
    """Read a prediction file into per-image detection lists. The file's
    boxes are built in one pass (`_boxed_lines`)."""
    out: dict[str, list[Detection]] = {}
    for line_no, box, (image_id, class_id, score) in _boxed_lines(path, _prediction_fields):
        try:
            det = Detection(box=box, score=score, class_id=class_id)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        out.setdefault(image_id, []).append(det)
    return out


def _prediction_fields(line_no: int, line: str) -> tuple[tuple, list[float]]:
    """(image id, class id, score) and the corner floats of one prediction line."""
    tokens = line.split()
    if len(tokens) != 11:
        raise MalformedLine(line_no, f"expected 11 tokens, got {len(tokens)}")
    try:
        fields = (tokens[0], int(tokens[1]), float(tokens[2]))
        return fields, [float(t) for t in tokens[3:]]
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None


def crop_chip(image: ComplexRaster, box: OrientedBox) -> tuple[ComplexRaster, tuple[int, int]]:
    """Axis-aligned crop covering the rotated box, clamped to image bounds.

    The crop is a read-only view of the image's samples, which the image's
    own construction checked: it is neither copied nor checked again.
    """
    xmin, ymin, xmax, ymax = box.bounds
    x0 = max(math.floor(xmin), 0)
    y0 = max(math.floor(ymin), 0)
    x1 = min(math.ceil(xmax), image.width)
    y1 = min(math.ceil(ymax), image.height)
    if x1 <= x0 or y1 <= y0:
        raise BoxOutsideImage(
            f"box AABB [{xmin:.6g}, {xmax:.6g}]x[{ymin:.6g}, {ymax:.6g}] misses the "
            f"{image.width}x{image.height} image")
    return ComplexRaster._trusted(image.samples[y0:y1, x0:x1]), (x0, y0)


@dataclass(frozen=True)
class DatasetIndex:
    """Paired image/annotation paths; every file verified to exist."""

    entries: tuple[tuple[Path, Path], ...]
    root: Path

    def __post_init__(self):
        for img, ann in self.entries:
            if not img.is_file():
                raise FileNotFoundError(f"missing image {img}")
            if not ann.is_file():
                raise FileNotFoundError(f"missing annotation {ann}")


def index_dataset(images_dir: str | Path, annots_dir: str | Path) -> DatasetIndex:
    """Pair every image in images_dir with the same-stem .txt annotation."""
    images_dir, annots_dir = Path(images_dir), Path(annots_dir)
    if not images_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {images_dir}")
    if not annots_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {annots_dir}")
    imgs = sorted(p for p in images_dir.iterdir()
                  if p.suffix in (".csar", ".pgm") and p.is_file())
    entries = tuple((img, annots_dir / (img.stem + ".txt")) for img in imgs)
    return DatasetIndex(entries=entries, root=images_dir.parent)


@dataclass
class RunSummary:
    """Per-instance timing and failure accounting for one annotation run.

    `failures` counts instances kept unchanged, `failed_images` images whose
    chip or annotation file could not be read.
    """

    instances: int = 0
    failures: int = 0
    failed_images: int = 0
    instance_ms: list[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.instance_ms)) if self.instance_ms else 0.0


def _fit(regions: list[ScatterRegion], window: WindowRaster) -> list[FittedScatterer]:
    """One fit per region: the regions' supports are laid out in one pass,
    then each laid-out region is fitted on its own."""
    psf = base_psf(window)
    return [fit_scatterer(reg, psf) for reg in lay_out_regions(regions)]


def _keypoints(regions: list[ScatterRegion], window: WindowRaster,
               k: int, rng_seed: int) -> KeypointSet:
    """Fit -> cluster on decoupled regions: the path annotate shares."""
    fits = _fit(regions, window)
    return cluster_keypoints([(f.x, f.y) for f in fits], k=k, rng_seed=rng_seed)


def fit_regions(img: ComplexRaster, window: WindowRaster,
                dec_params: DecoupleParams = DecoupleParams()) -> list[FittedScatterer]:
    """Decouple a chip and fit one scatterer per extracted region."""
    return _fit(decouple(img, dec_params), window)


def skaa_keypoints(img: ComplexRaster, window: WindowRaster,
                   dec_params: DecoupleParams = DecoupleParams(),
                   k: int = DEFAULT_K, rng_seed: int = 0) -> KeypointSet:
    """Full physics path: decouple -> fit positions -> cluster to k keypoints."""
    return _keypoints(decouple(img, dec_params), window, k, rng_seed)


def _dump_steps(amp: AmplitudeRaster, regions: list[ScatterRegion],
                debug_dir: Path, stem: str) -> None:
    """Dump each step's residual and support, for --debug-dir; the residual
    after step i is `amp` with the supports of steps 0..i set to 0.0."""
    residual = amp.values.copy()
    for it, region in enumerate(regions):
        residual.ravel()[region.indices] = 0.0
        step_stem = f"{stem}_{it:02d}"
        write_chip(AmplitudeRaster(residual), debug_dir / f"{step_stem}_residual.csar")
        write_chip(AmplitudeRaster(region.support.astype(np.float64)),
                   debug_dir / f"{step_stem}_labels.csar")


def _annotate_instance_skaa(image: ComplexRaster, ann: InstanceAnnotation,
                            image_id: str, idx: int, master_seed: int,
                            dec_params: DecoupleParams, k: int, window_nbar: int,
                            window_sidelobe_db: float,
                            debug_dir: Path | None = None) -> InstanceAnnotation:
    chip, origin = crop_chip(image, ann.box)
    window = taylor_window_2d(chip.height, chip.width, window_nbar, window_sidelobe_db)
    regions = decouple(chip, dec_params)
    if debug_dir is not None:
        _dump_steps(amplitude(chip), regions, debug_dir, f"{image_id}_{idx:03d}")
    kps = _keypoints(regions, window, k, instance_seed(master_seed, image_id, idx))
    return replace(ann, keypoints=to_global(kps, origin))


def _annotate_instance_dog(image: ComplexRaster, ann: InstanceAnnotation,
                           image_id: str, idx: int, master_seed: int,
                           dog_params: DogParams, k: int) -> InstanceAnnotation:
    chip, origin = crop_chip(image, ann.box)
    seed = instance_seed(master_seed, image_id, idx)
    kps = dog_keypoints(amplitude(chip), dog_params, k=k, rng_seed=seed)
    return replace(ann, keypoints=to_global(kps, origin))


def _run_annotator(index: DatasetIndex, out_dir: str | Path, worker) -> RunSummary:
    """Shared driver: crop/annotate every instance, write per-image files.

    `worker(image, ann, image_id, idx)` returns the extended annotation.
    Failures on degenerate instances keep the original line and are logged.
    An image whose chip or annotation file fails to parse is logged, its
    annotation file is copied through unchanged, and the run goes on.
    Every instance runs in index order on the calling thread.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = RunSummary()
    for img_path, ann_path in index.entries:
        image_id = img_path.stem
        try:
            image = read_chip(img_path)
            annots = parse_annotation(ann_path)
        except ScatterKitError as exc:
            log.warning("%s: %s (copied annotation file unchanged)", image_id, exc)
            shutil.copyfile(ann_path, out_dir / ann_path.name)
            summary.failed_images += 1
            continue
        if isinstance(image, AmplitudeRaster):  # checked when read
            image = ComplexRaster._trusted(image.values.astype(np.complex128))
        extended = []
        for idx, ann in enumerate(annots):
            t0 = time.perf_counter()
            try:
                extended.append(worker(image, ann, image_id, idx))
            except ScatterKitError as exc:
                log.warning("%s[%d]: %s (kept original line)", image_id, idx, exc)
                extended.append(ann)
                summary.failures += 1
            summary.instance_ms.append((time.perf_counter() - t0) * 1e3)
        summary.instances += len(extended)
        write_annotation(extended, out_dir / ann_path.name)
    return summary


def run_skaa(index: DatasetIndex, out_dir: str | Path, *, master_seed: int,
             dec_params: DecoupleParams = DecoupleParams(), k: int = DEFAULT_K,
             window_nbar: int = DEFAULT_NBAR,
             window_sidelobe_db: float = DEFAULT_SIDELOBE_DB, threads: int = 1,
             debug_dir: str | Path | None = None) -> RunSummary:
    """Physics pipeline over a dataset: every instance gains k keypoints.

    Each crop's window comes from `taylor_window_2d`, whose memo builds a
    taper once per (length, window parameters); bad window parameters raise
    InvalidWindowParams before anything is written. `threads` must be >= 1
    and changes nothing: a thread pool only traded the GIL.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_window_params(window_nbar, window_sidelobe_db)
    if debug_dir is not None:
        debug_dir = Path(debug_dir)
        debug_dir.mkdir(parents=True, exist_ok=True)

    def worker(image, ann, image_id, idx):
        return _annotate_instance_skaa(
            image, ann, image_id, idx, master_seed, dec_params, k, window_nbar,
            window_sidelobe_db, debug_dir=debug_dir)
    return _run_annotator(index, out_dir, worker)


def run_dog(index: DatasetIndex, out_dir: str | Path, *, master_seed: int = 0,
            dog_params: DogParams = DogParams(), k: int = DEFAULT_K) -> RunSummary:
    """DoG baseline over a dataset, same output format as run_skaa.

    A `k` above `dog_params.top_n` raises ValueError before anything is
    written.
    """
    _check_top_n(dog_params, k)

    def worker(image, ann, image_id, idx):
        return _annotate_instance_dog(image, ann, image_id, idx, master_seed,
                                      dog_params, k)
    return _run_annotator(index, out_dir, worker)
