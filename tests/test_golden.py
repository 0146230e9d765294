"""Every output of every command, held to a committed SHA-256 digest.

`build` makes small seeded inputs through the public API (complex chips
clean and speckled, a multi-target scene, and 8-bit PGM, 16-bit PGM and
amplitude-CSAR copies of the clean chips), then runs `annotate` (with and
without `--debug-dir`), `baseline-dog`, `heatmap --png` and `eval`
(default, `--ignore-difficult`, `--keypoint-compare`) on them. Every file
under the build directory is hashed; a manifest is hashed without its
`timing_ms` lines and its `python`/`numpy` version lines, which vary from
run to run and from host to host.

A change that moves outputs on purpose rewrites the digest file with

    PYTHONPATH=src python tests/test_golden.py

and names the entries that moved in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from scatterkit import (ComplexRaster, FrequencyGrid, OrientedBox, amplitude, read_chip,
                        synth_target, taylor_window_2d, write_chip)
from scatterkit.annotio import InstanceAnnotation, parse_annotation, write_annotation
from scatterkit.cli import main

DIGEST = Path(__file__).parent / "data" / "golden.sha256"
_VOLATILE = (b"timing_ms.", b"python = ", b"numpy = ")


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv


def _scene(out: Path, seed: int) -> None:
    """One 96x96 complex scene of four 48x48 synthetic targets, tiled 2x2,
    and its four-instance annotation file."""
    grid, window = FrequencyGrid(48, 48), taylor_window_2d(48, 48)
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = np.zeros((96, 96), dtype=np.complex128)
    annots = []
    for y0 in (0, 48):
        for x0 in (0, 48):
            chip = synth_target(int(rng.integers(2, 5)), grid, window, rng, min_separation=5.0)
            samples[y0:y0 + 48, x0:x0 + 48] = chip.image.samples
            box = OrientedBox(chip.box.corners + (x0, y0))
            annots.append(InstanceAnnotation(box=box, class_name="scatterer"))
    (out / "images").mkdir(parents=True)
    (out / "annots").mkdir()
    write_chip(ComplexRaster(samples), out / "images" / "scene_00000.csar")
    write_annotation(annots, out / "annots" / "scene_00000.txt")


def _amplitude_copy(src: Path, out: Path, fmt: str) -> None:
    """The images of `src` as amplitude files of format `fmt`, with its annotations."""
    (out / "images").mkdir(parents=True)
    (out / "annots").mkdir()
    for img_path in sorted((src / "images").glob("*.csar")):
        amp = amplitude(read_chip(img_path))
        if fmt == "csar":
            write_chip(amp, out / "images" / img_path.name)
        else:
            maxval, dtype = (255, "u1") if fmt == "pgm8" else (65535, ">u2")
            raw = np.floor(amp.values / amp.values.max() * maxval + 0.5).astype(dtype)
            h, w = raw.shape
            (out / "images" / f"{img_path.stem}.pgm").write_bytes(
                f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + raw.tobytes())
        ann = src / "annots" / f"{img_path.stem}.txt"
        (out / "annots" / ann.name).write_bytes(ann.read_bytes())


def _eval_inputs(sets: list[Path], out: Path, seed: int) -> None:
    """Ground truth of two alternating classes, every third instance
    difficult, and two scored predictions per instance: its box jittered,
    with its class, and that box shifted 9 px, with the other class."""
    rng = np.random.Generator(np.random.PCG64(seed))
    (out / "gts").mkdir(parents=True)
    lines = []
    for root in sets:
        for ann_path in sorted((root / "annots").glob("*.txt")):
            image_id = f"{root.name}_{ann_path.stem}"
            gts = []
            for i, ann in enumerate(parse_annotation(ann_path)):
                class_id = i % 2
                gts.append(InstanceAnnotation(box=ann.box, class_name=("plane", "ship")[class_id],
                                              difficulty=int(i % 3 == 2)))
                corners = ann.box.corners + rng.normal(0.0, 0.8, size=(4, 2))
                for cid, c in ((class_id, corners), (1 - class_id, corners[::-1] + 9.0)):
                    nums = " ".join(f"{v:.6g}" for v in c.ravel())
                    lines.append(f"{image_id} {cid} {rng.uniform(0.05, 1.0):.6g} {nums}")
            write_annotation(gts, out / "gts" / f"{image_id}.txt")
    (out / "preds.txt").write_text("\n".join(lines) + "\n")


def build(root: Path) -> None:
    """Every input and output the digest covers, under `root`."""
    cwd = os.getcwd()
    os.chdir(root)  # reports name their inputs by relative path
    try:
        _run("synth", "--out", "clean", "--chips", 3, "--dim", 48, "--scatterers", "2..5",
             "--seed", 7)
        _run("synth", "--out", "speckled", "--chips", 2, "--dim", 48, "--scatterers", "3..6",
             "--seed", 8, "--speckle")
        _scene(Path("scene"), seed=9)
        for fmt in ("pgm8", "pgm16", "csar"):
            _amplitude_copy(Path("clean"), Path(fmt), fmt)
        for name in ("clean", "speckled", "scene", "pgm8", "pgm16", "csar"):
            inputs = ("--images", f"{name}/images", "--annots", f"{name}/annots")
            _run("annotate", *inputs, "--out", f"{name}/skaa", "--seed", 0)
            if name in ("clean", "scene", "pgm8"):
                _run("annotate", *inputs, "--out", f"{name}/skaa-debug", "--seed", 0,
                     "--debug-dir", f"{name}/debug")
            if name in ("clean", "speckled", "pgm16"):
                _run("baseline-dog", *inputs, "--out", f"{name}/dog")
        _run("heatmap", "--annots", "clean/skaa", "--dims", "48x48", "--out",
             "clean/heatmap", "--png")
        _eval_inputs([Path("clean"), Path("speckled"), Path("scene")], Path("eval"), seed=10)
        detections = ("--preds", "eval/preds.txt", "--gts", "eval/gts")
        _run("eval", *detections, "--report", "eval/report.txt")
        _run("eval", *detections, "--ignore-difficult", "--report",
             "eval/report-ignore-difficult.txt")
        _run("eval", "--keypoint-compare", "--annots-a", "speckled/skaa", "--annots-b",
             "speckled/dog", "--truth", "speckled/truth", "--report",
             "eval/report-keypoints.txt")
    finally:
        os.chdir(cwd)


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, by its relative POSIX path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run-manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(_VOLATILE))
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def _read_digest() -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in DIGEST.read_text().splitlines())
    return {name: sha for sha, name in pairs}


def test_every_output_matches_the_committed_digest(tmp_path):
    build(tmp_path)
    got, want = digests(tmp_path), _read_digest()
    moved = sorted(n for n in got.keys() & want.keys() if got[n] != want[n])
    assert (sorted(got.keys() - want.keys()), sorted(want.keys() - got.keys()), moved) == \
        ([], [], []), "(new, missing, moved) outputs; see this module's docstring"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
        table = digests(Path(tmp))
    DIGEST.write_text("".join(f"{sha}  {name}\n" for name, sha in table.items()))
    print(f"wrote {len(table)} digests to {DIGEST}", file=sys.stderr)
