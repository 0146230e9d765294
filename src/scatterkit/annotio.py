"""Annotation text formats, chip cropping, and the annotation pipelines.

The physics pipeline is composed here alone: `run_skaa` runs decouple ->
fit -> cluster on every crop, one loop pass each, with `skaa_keypoints`' own
fit and cluster code. Its `--debug-dir` dump comes from the same regions, as
two files per instance: `{image}_{idx:03d}_amplitude.csar`, the crop's
amplitude, and `{image}_{idx:03d}_supports.txt`, one line per extraction
step holding that region's ascending flat row-major indices into the crop
(an empty file when no step ran). The residual after step i is the
amplitude with the indices of lines 0..i set to 0.0; a pixel may sit on
more than one line.

Base format is one instance per line:

    x1 y1 x2 y2 x3 y3 x4 y4 class_name difficulty

optionally extended with a literal ``kp`` token followed by 2k keypoint
coordinates. Floats are written with 6 significant digits. Prediction files
("image_id class_id score x1 .. y4") and scatterer truth sidecars
("x y amplitude") share the same numeric convention. All three are read by
`chipio.read_text_lines`, once; a parse error names the first bad line, or
line 0 for a non-ASCII byte anywhere in the file. An annotation or
prediction file has one reader, which makes one loop over its lines: each
is split, its tokens counted and converted, up to the first that cannot be
read, whose error is kept. All the boxes read are derived from one stack of
corners (`metrics._box_fields`), and each line's record rules are checked
in line order; a line that breaks one is built by the checked
constructors, whose first error is raised, before the kept one. Only then
are all the file's boxes, keypoint sets and records built, unchecked
(`raster._unchecked_all`).
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
from .chipio import read_chip, read_text_lines, write_atomic, write_chip
from .decouple import DecoupleParams, ScatterRegion, decouple
from .errors import (BadKeypointCount, BoxOutsideImage, DegenerateBox, DuplicateStem,
                     MalformedLine, OutOfBounds, ScatterKitError)
from .keypoints import (DEFAULT_K, DogParams, KeypointSet, _check_top_n, cluster_keypoints,
                        dog_keypoints, instance_seed, to_global)
from .metrics import Detection, OrientedBox, _box_fields
from .raster import (AmplitudeRaster, ComplexRaster, WindowRaster, _unchecked, _unchecked_all,
                     amplitude)
from .spectral import DEFAULT_NBAR, DEFAULT_SIDELOBE_DB, _check_window_params, taylor_window_2d

log = logging.getLogger("scatterkit")

FLOAT_FMT = "{:.6g}"


def _fmt(v: float) -> str:
    return FLOAT_FMT.format(float(v))


_DIFFICULTIES = (0, 1)


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
        if self.difficulty not in _DIFFICULTIES:
            raise ValueError(f"difficulty must be 0 or 1, got {self.difficulty}")
        if self.keypoints is not None:
            stray = _stray_keypoint(self.box.bounds, self.keypoints.points)
            if stray is not None:
                raise OutOfBounds(stray)


def _stray_keypoint(bounds: tuple[float, ...], points) -> str | None:
    """Why the first of `points` outside the box bounds (xmin, ymin, xmax,
    ymax) widened by 2 px breaks `InstanceAnnotation`'s rule, or None."""
    xmin, ymin, xmax, ymax = bounds
    x0, y0, x1, y1 = xmin - 2.0, ymin - 2.0, xmax + 2.0, ymax + 2.0
    for x, y in points:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return f"keypoint ({x}, {y}) outside box AABB [{x0}, {x1}]x[{y0}, {y1}]"
    return None


def _lines(path: str | Path) -> list[tuple[int, str]]:
    """A record file's numbered non-blank lines; a non-ASCII byte is line 0."""
    try:
        return read_text_lines(path)
    except UnicodeDecodeError as exc:
        raise MalformedLine(0, f"not ascii text: {exc}") from None


def parse_annotation(path: str | Path) -> list[InstanceAnnotation]:
    """Read one annotation file in one pass (see the module docstring);
    blank lines are ignored.

    A line is good when its box and difficulty meet their rules and each
    keypoint lies within the box's bounds widened by 2 px, the rule of
    `_stray_keypoint`, checked inline. A good box's bounds are finite, so a
    NaN or infinite keypoint breaks that rule too: `KeypointSet`'s
    finiteness rule is looked up only for a line that is not good, when the
    checked constructors build it for its error.
    """
    lines = _lines(path)
    read, corners, unread = [], [], None  # read: (class name, difficulty, keypoints)
    for line_no, line in lines:
        r = line.split()
        n = len(r)
        try:
            if n < 10:
                raise MalformedLine(line_no, f"expected >= 10 tokens, got {n}")
            try:
                corners += map(float, r[:8])
            except ValueError as exc:
                raise MalformedLine(line_no, f"bad corner value: {exc}") from None
            try:
                difficulty = int(r[9])
            except ValueError:
                raise MalformedLine(line_no, f"bad difficulty {r[9]!r}") from None
            points = None
            if n > 10:
                if r[10] != "kp":
                    raise MalformedLine(line_no, f"unknown trailing token {r[10]!r}")
                try:
                    coords = list(map(float, r[11:]))
                except ValueError as exc:
                    raise MalformedLine(line_no, f"bad keypoint value: {exc}") from None
                if not coords or len(coords) % 2:
                    raise BadKeypointCount(
                        line_no, f"keypoint list must hold 2k numbers, got {len(coords)}")
                points = tuple(zip(coords[0::2], coords[1::2]))
        except MalformedLine as exc:
            unread = exc
            break
        read.append((r[8], difficulty, points))
    del corners[8 * len(read):]  # an unread line's
    boxes = _box_fields(np.array(corners, dtype=np.float64).reshape(-1, 4, 2))
    for (class_name, difficulty, points), box, (line_no, _) in zip(read, boxes, lines):
        if type(box) is dict and difficulty in _DIFFICULTIES:
            if points is None:
                continue
            xmin, ymin, xmax, ymax = box["_reach"][:4]  # the box's `bounds`
            for x, y in points:
                if not (xmin - 2.0 <= x <= xmax + 2.0 and ymin - 2.0 <= y <= ymax + 2.0):
                    break
            else:
                continue
        try:
            kps = None if points is None else KeypointSet(points=points)
            if type(box) is DegenerateBox:
                raise box
            InstanceAnnotation(box=_unchecked(OrientedBox, **box), class_name=class_name,
                               difficulty=difficulty, keypoints=kps)
        except (ScatterKitError, ValueError) as exc:
            raise MalformedLine(line_no, str(exc)) from None
    if unread is not None:
        raise unread
    kpsets = iter(_unchecked_all(KeypointSet, [{"points": p} for _, _, p in read if p]))
    return _unchecked_all(InstanceAnnotation, [
        {"box": box, "class_name": class_name, "difficulty": difficulty,
         "keypoints": next(kpsets) if points else None}
        for box, (class_name, difficulty, points) in zip(_unchecked_all(OrientedBox, boxes),
                                                         read)])


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
    write_atomic(path, format_annotation(annots))


def parse_truth(path: str | Path) -> list[Scatterer]:
    """Read a scatterer truth sidecar (``x y amplitude`` per line)."""
    return [_scatterer(line_no, line) for line_no, line in _lines(path)]


def _scatterer(line_no: int, line: str) -> Scatterer:
    tokens = line.split()
    if len(tokens) != 3:
        raise MalformedLine(line_no, f"expected 3 tokens, got {len(tokens)}")
    try:
        x, y, a = (float(t) for t in tokens)
        return Scatterer(x=x, y=y, amplitude=a)
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None


def write_truth(scatterers: list[Scatterer], path: str | Path) -> None:
    lines = [f"{_fmt(s.x)} {_fmt(s.y)} {_fmt(s.amplitude)}" for s in scatterers]
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def parse_predictions(path: str | Path) -> dict[str, list[Detection]]:
    """Read a prediction file into per-image detection lists, in one pass,
    as the module docstring says. A line whose box or score breaks its rule
    is built by the checked constructors, in their order, for its error."""
    lines = _lines(path)
    read, corners, unread = [], [], None  # read: (image id, class id, score)
    for line_no, line in lines:
        r = line.split()
        if len(r) != 11:
            unread = MalformedLine(line_no, f"expected 11 tokens, got {len(r)}")
            break
        try:
            fields = (r[0], int(r[1]), float(r[2]))
            corners += map(float, r[3:])
        except ValueError as exc:
            unread = MalformedLine(line_no, str(exc))
            break
        read.append(fields)
    del corners[8 * len(read):]  # an unread line's
    boxes = _box_fields(np.array(corners, dtype=np.float64).reshape(-1, 4, 2))
    for (_, class_id, score), box, (line_no, _) in zip(read, boxes, lines):
        if type(box) is dict and 0.0 <= score <= 1.0:
            continue
        try:
            if type(box) is DegenerateBox:
                raise box
            Detection(box=_unchecked(OrientedBox, **box), score=score, class_id=class_id)
        except (ScatterKitError, ValueError) as exc:
            raise MalformedLine(line_no, str(exc)) from None
    if unread is not None:
        raise unread
    dets = _unchecked_all(Detection, [
        {"box": box, "score": score, "class_id": class_id}
        for box, (_, class_id, score) in zip(_unchecked_all(OrientedBox, boxes), read)])
    out: dict[str, list[Detection]] = {}
    for (image_id, _, _), det in zip(read, dets):
        out.setdefault(image_id, []).append(det)
    return out


def crop_chip(image: ComplexRaster | AmplitudeRaster,
              box: OrientedBox) -> tuple[ComplexRaster | AmplitudeRaster, tuple[int, int]]:
    """Axis-aligned crop covering the rotated box, clamped to image bounds.

    The crop is a raster of the image's kind, holding a read-only view of
    the image's array, which the image's own construction checked: it is
    neither copied nor checked again.
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
    if isinstance(image, AmplitudeRaster):
        return _unchecked(AmplitudeRaster, values=image.values[y0:y1, x0:x1]), (x0, y0)
    return _unchecked(ComplexRaster, samples=image.samples[y0:y1, x0:x1]), (x0, y0)


@dataclass(frozen=True)
class DatasetIndex:
    """Paired image/annotation paths; every file verified to exist.

    Image stems are unique: each names one annotation file, one output file
    and one `--debug-dir` stem, so two images sharing one (`x.csar` and
    `x.pgm`) raise DuplicateStem before anything is read or written.
    """

    entries: tuple[tuple[Path, Path], ...]
    root: Path

    def __post_init__(self):
        by_stem = {}
        for img, _ in self.entries:
            if img.stem in by_stem:
                raise DuplicateStem(
                    f"images {by_stem[img.stem]} and {img} share the stem {img.stem!r}")
            by_stem[img.stem] = img
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

    `instance_ms` holds one time per instance attempted, so `instances` is
    its length. `failures` counts instances kept unchanged, `failed_images`
    images whose chip or annotation file could not be read.
    """

    failures: int = 0
    failed_images: int = 0
    instance_ms: list[float] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return len(self.instance_ms)

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


def fit_regions(img: ComplexRaster | AmplitudeRaster, window: WindowRaster,
                dec_params: DecoupleParams = DecoupleParams()) -> list[FittedScatterer]:
    """Decouple a chip and fit one scatterer per extracted region."""
    return _fit(decouple(img, dec_params), window)


def skaa_keypoints(img: ComplexRaster | AmplitudeRaster, window: WindowRaster,
                   dec_params: DecoupleParams = DecoupleParams(),
                   k: int = DEFAULT_K, rng_seed: int = 0) -> KeypointSet:
    """Full physics path: decouple -> fit positions -> cluster to k keypoints."""
    return _keypoints(decouple(img, dec_params), window, k, rng_seed)


def _dump_steps(amp: AmplitudeRaster, regions: list[ScatterRegion],
                debug_dir: Path, stem: str) -> None:
    """Dump the crop's amplitude and one line of support indices per step,
    for --debug-dir (see the module docstring)."""
    write_chip(amp, debug_dir / f"{stem}_amplitude.csar")
    write_atomic(debug_dir / f"{stem}_supports.txt",
                 "".join(" ".join(map(str, r.indices.tolist())) + "\n" for r in regions))


def _annotate_instance_skaa(image: ComplexRaster | AmplitudeRaster, ann: InstanceAnnotation,
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


def _annotate_instance_dog(image: ComplexRaster | AmplitudeRaster, ann: InstanceAnnotation,
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
    Each image is cropped as it was read, complex or amplitude.
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
