"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of (seed, output directory): the same
seed writes byte-identical inputs. All of them are built from the
public API only, so they keep working when private helpers move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scatterkit import (FrequencyGrid, OrientedBox, Scatterer, cluster_keypoints,
                        instance_seed, synth_image, synth_target, taylor_window_2d,
                        write_chip)
from scatterkit.annotio import InstanceAnnotation, write_annotation, write_truth

# Set sizes: one round over a set takes ~4 s at the seed state on a 2-vCPU
# Xeon VM, so three rounds fill a 12 s run. Counts cycle through their range
# (scatterers per chip or target, boxes per image) so every seed draws the
# same mix and only positions, amplitudes and angles change.
CHIP_DIM = 128
CHIPS_CLEAN = 22         # 2 chips per scatterer count 5..15
CHIPS_SPECKLED = 33      # 3 per count; speckled instances run ~40 % faster
SCENES = 3               # x 12 targets
SCENE_TARGETS = 12
SCENE_DIM = 256
SCENE_CELL = 64          # targets sit one per 64 px cell, so boxes never overlap
EVAL_SHARDS = 24         # one `eval` call per shard
EVAL_IMAGES_PER_SHARD = 2
EVAL_BOXES_PER_IMAGE = 12
EVAL_CLASSES = ("plane", "ship", "tank")
EVAL_PREDS_PER_GT = 3


@dataclass
class Dataset:
    """Where a workload's inputs live, plus the truth the checks need."""

    kind: str                       # "annotate" or "eval"
    root: Path
    images: Path | None = None
    annots: Path | None = None
    truth: Path | None = None
    # annotate: (x, y, amplitude) rows of the scatterers inside each
    # instance, keyed by (image_id, instance index), in source-image pixels
    instance_truth: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    # eval: one (gts_dir, preds_file, truth_dir, n_detections) per shard
    shards: list[tuple[Path, Path, Path, int]] = field(default_factory=list)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def _rect(center: np.ndarray, w: float, h: float, theta: float) -> OrientedBox:
    """w x h rectangle around center, its w side at angle theta."""
    u = np.array([np.cos(theta), np.sin(theta)]) * (w / 2)
    v = np.array([-np.sin(theta), np.cos(theta)]) * (h / 2)
    return OrientedBox(np.array([center + u + v, center - u + v,
                                 center - u - v, center + u - v]))


def _enclosing_box(points: np.ndarray, theta: float, margin: float) -> OrientedBox:
    """Rectangle at angle theta around the points, `margin` px on every side."""
    center = points.mean(axis=0)
    rel = points - center
    hu = float(np.abs(rel @ np.array([np.cos(theta), np.sin(theta)])).max()) + margin
    hv = float(np.abs(rel @ np.array([-np.sin(theta), np.cos(theta)])).max()) + margin
    return _rect(center, 2 * hu, 2 * hv, theta)


def _count(full: int, fraction: float) -> int:
    return max(1, round(full * fraction))


def chips(seed: int, root: Path, speckle: bool, fraction: float) -> Dataset:
    """128x128 chips, one instance each, drawn as `scatterkit synth` draws them.

    Chip i has 5 + i % 11 scatterers instead of a random count: the distance
    from truth to keypoints grows ~5x from 5 to 15 scatterers, so a fixed
    mix keeps the accuracy figures comparable between seeds.
    """
    ds = Dataset("annotate", root, root / "images", root / "annots", root / "truth")
    for d in (ds.images, ds.annots, ds.truth):
        d.mkdir(parents=True, exist_ok=True)
    grid = FrequencyGrid(height=CHIP_DIM, width=CHIP_DIM)
    window = taylor_window_2d(CHIP_DIM, CHIP_DIM)
    for i in range(_count(CHIPS_SPECKLED if speckle else CHIPS_CLEAN, fraction)):
        chip_id = f"chip_{i:05d}"
        rng = np.random.Generator(np.random.PCG64(instance_seed(seed, chip_id, 0)))
        chip = synth_target(5 + i % 11, grid, window, rng, speckle=speckle)
        write_chip(chip.image, ds.images / f"{chip_id}.csar")
        write_annotation([InstanceAnnotation(box=chip.box, class_name=chip.class_name,
                                             difficulty=chip.difficulty)],
                         ds.annots / f"{chip_id}.txt")
        write_truth(list(chip.truth), ds.truth / f"{chip_id}.txt")
        ds.instance_truth[(chip_id, 0)] = np.array(
            [(t.x, t.y, t.amplitude) for t in chip.truth])
    return ds


def scenes(seed: int, root: Path, fraction: float) -> Dataset:
    """256x256 scenes with 12 compact targets (5..10 scatterers in ~24 px) each."""
    ds = Dataset("annotate", root, root / "images", root / "annots", root / "truth")
    for d in (ds.images, ds.annots, ds.truth):
        d.mkdir(parents=True, exist_ok=True)
    grid = FrequencyGrid(height=SCENE_DIM, width=SCENE_DIM)
    window = taylor_window_2d(SCENE_DIM, SCENE_DIM)
    cells = [(r, c) for r in range(SCENE_DIM // SCENE_CELL)
             for c in range(SCENE_DIM // SCENE_CELL)]
    for j in range(_count(SCENES, fraction)):
        image_id = f"scene_{j:03d}"
        rng = _rng(seed, 1, j)
        picked = sorted(rng.choice(len(cells), size=SCENE_TARGETS, replace=False))
        annots, scatterers = [], []
        for idx, cell in enumerate(picked):
            r, c = cells[cell]
            center = np.array([(c + 0.5) * SCENE_CELL, (r + 0.5) * SCENE_CELL])
            center += rng.uniform(-8.0, 8.0, size=2)
            pts: list[np.ndarray] = []
            n = 5 + idx % 6
            while len(pts) < n:
                p = center + rng.uniform(-12.0, 12.0, size=2)
                if all(np.hypot(*(p - q)) >= 3.0 for q in pts):
                    pts.append(p)
            xy = np.array(pts)
            amp = rng.uniform(0.5, 1.5, size=n)
            box = _enclosing_box(xy, float(rng.uniform(0.0, np.pi)), 3.0)
            annots.append(InstanceAnnotation(box=box, class_name="target"))
            ds.instance_truth[(image_id, idx)] = np.column_stack([xy, amp])
            scatterers += [Scatterer(x=float(x), y=float(y), amplitude=float(a))
                           for (x, y), a in zip(xy, amp)]
        write_chip(synth_image(scatterers, grid, window), ds.images / f"{image_id}.csar")
        write_annotation(annots, ds.annots / f"{image_id}.txt")
        write_truth(scatterers, ds.truth / f"{image_id}.txt")
    return ds


def eval_rotated(seed: int, root: Path, fraction: float) -> Dataset:
    """Rotated-box GT (3 classes, ~10 % difficult) and ~3 jittered predictions per box.

    Each GT box also carries k = 9 keypoints, the k-means consolidation of
    the scatterers written to its truth file, so `eval --keypoint-compare`
    has something to score.
    """
    ds = Dataset("eval", root)
    for s in range(_count(EVAL_SHARDS, fraction)):
        shard = f"shard_{s:03d}"
        gts_dir, truth_dir = root / "gts" / shard, root / "truth" / shard
        gts_dir.mkdir(parents=True, exist_ok=True)
        truth_dir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 2, s)
        lines, n_det = [], 0
        for i in range(EVAL_IMAGES_PER_SHARD):
            image_id = f"img_{s:03d}_{i}"
            annots, truth = [], []
            for g in range(EVAL_BOXES_PER_IMAGE):
                # the first boxes cover every class undifficult, so each shard
                # has the same class -> id map with or without --ignore-difficult
                cls = g if g < len(EVAL_CLASSES) else int(rng.integers(len(EVAL_CLASSES)))
                difficult = int(g >= len(EVAL_CLASSES) and rng.random() < 0.1)
                center = rng.uniform(30.0, SCENE_DIM - 30.0, size=2)
                w, h = rng.uniform(16.0, 40.0), rng.uniform(10.0, 24.0)
                theta = float(rng.uniform(0.0, np.pi))
                box = _rect(center, w, h, theta)
                local = rng.uniform(-0.4, 0.4, size=(6 + g % 7, 2)) * (w, h)
                c, sn = np.cos(theta), np.sin(theta)
                pts = center + local @ np.array([[c, sn], [-sn, c]])
                kps = cluster_keypoints([tuple(p) for p in pts], k=9,
                                        rng_seed=instance_seed(seed, image_id, g))
                annots.append(InstanceAnnotation(box=box, class_name=EVAL_CLASSES[cls],
                                                 difficulty=difficult, keypoints=kps))
                truth += [Scatterer(x=float(x), y=float(y), amplitude=1.0) for x, y in pts]
                for _ in range(EVAL_PREDS_PER_GT):
                    jc = center + rng.normal(0.0, 0.08 * min(w, h), size=2)
                    scale = np.exp(rng.normal(0.0, 0.1, size=2))
                    pred = _rect(jc, w * scale[0], h * scale[1],
                                 theta + float(rng.normal(0.0, 0.12)))
                    pcls = cls if rng.random() < 0.9 else int(rng.integers(len(EVAL_CLASSES)))
                    lines.append(_pred_line(image_id, pcls, float(rng.uniform(0.05, 1.0)), pred))
                    n_det += 1
            write_annotation(annots, gts_dir / f"{image_id}.txt")
            write_truth(truth, truth_dir / f"{image_id}.txt")
        preds = root / "preds" / f"{shard}.txt"
        preds.parent.mkdir(parents=True, exist_ok=True)
        preds.write_text("\n".join(lines) + "\n", encoding="ascii")
        ds.shards.append((gts_dir, preds, truth_dir, n_det))
    return ds


def _pred_line(image_id: str, class_id: int, score: float, box: OrientedBox) -> str:
    nums = " ".join(f"{v:.6g}" for v in box.corners.ravel())
    return f"{image_id} {class_id} {score:.6g} {nums}"


def generate(workload: str, seed: int, root: Path, fraction: float = 1.0) -> Dataset:
    """Inputs of one workload. Every item draws from its own seeded stream, so
    a fraction of the set is exactly the first items of the full set."""
    if workload == "chips-clean":
        return chips(seed, root, speckle=False, fraction=fraction)
    if workload == "chips-speckled":
        return chips(seed, root, speckle=True, fraction=fraction)
    if workload == "scenes-multi":
        return scenes(seed, root, fraction)
    if workload == "eval-rotated":
        return eval_rotated(seed, root, fraction)
    raise ValueError(f"unknown workload {workload!r}")
