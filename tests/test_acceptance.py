"""End-to-end acceptance checks for the whole toolkit.

Each test is one acceptance criterion and emits one PASS/FAIL line in the
terminal summary (see conftest). The criteria pin the tolerances this
project commits to:

1. Scatterer recovery round trip on 100 synthetic 128x128 chips (seed 0):
   every top-9-by-amplitude truth scatterer matched by an extracted
   position within 2.0 px, mean error <= 1.5 px, under 60 s.
2. `scatterkit bench` on that set: median per-instance time <= 500 ms,
   and under the tighter bound next to it, <= 60 ms. A separate bound
   next to it: the median of 5 fits of a 512x512 region with a
   ~60,000-px support is <= 8 ms.
3. Extraction-loop invariants on 200 random chips (seeds 0..199), clean
   and speckled: zero violations.
4. Rotated IoU vs a 1024^2 rasterization Monte-Carlo oracle on 1000
   random pairs (seed 7): |difference| <= 1e-3; symmetry and self-IoU
   exact to 1e-9. A separate bound next to it: over the same pairs, the
   median of 7 timed passes is <= 60 us per `rotated_iou` call.
5. Average precision vs an exhaustive PR-curve oracle on 50 random mini
   detection problems: agree to 1e-9; a worked example yields exactly 5/6.
6. Supervision artifacts: unit peaks, max-merge dominance, sigma
   monotonicity, BCE at the known point, pyramid vs nested-loop oracle.
7. Default configuration constants.
8. Physics keypoints beat the difference-of-Gaussians baseline (distance
   to truth scatterers) on >= 80% of speckled chips, via the CLI.
9. Every CLI command is byte-deterministic across reruns and thread counts.
10. On the hard family (amplitudes 0.02-1.5, a 37 dB spread, 3 px apart;
    90 clean and 90 speckled chips), the keypoints of the shipped loop stop
    lie no farther from the truth scatterers than those of the -60 dB stop,
    and nearer than the DoG baseline's, via the CLI. Criterion 1's top-9
    recovery on these sets is reported alongside, without a bound.
"""

import contextlib
import io
import re
import time
from pathlib import Path

import numpy as np
import pytest

from scatterkit.ascmodel import FrequencyGrid, base_psf, fit_scatterer, synth_target
from scatterkit.chipio import read_chip
from scatterkit.cli import main
from scatterkit.config import MANIFEST_NAME, RunConfig
from scatterkit.decouple import DecoupleParams, decouple
from scatterkit.keypoints import KeypointSet
from scatterkit.metrics import (Detection, OrientedBox,
                                average_precision_grouped, greedy_point_match,
                                rotated_iou)
from scatterkit.annotio import fit_regions, parse_annotation, parse_truth
from scatterkit.spectral import taylor_window_2d
from scatterkit.supervision import (ScatterMap, bce_loss, downsample_pyramid,
                                    gt_scatter_map)

from oracles import decouple_residuals

DIM = 128
GRID = FrequencyGrid(height=DIM, width=DIM)
WINDOW = taylor_window_2d(DIM, DIM, nbar=4, sidelobe_db=-35.0)


def run_cli(argv: list[str]) -> str:
    """Run a CLI command in-process; fail the test on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"scatterkit {' '.join(argv)} exited {code}\n{buf.getvalue()}"
    return buf.getvalue()


@pytest.fixture(scope="session")
def clean_set(tmp_path_factory):
    """100 clean 128x128 chips, 5..15 scatterers, master seed 0."""
    root = tmp_path_factory.mktemp("clean-set")
    run_cli(["synth", "--out", str(root), "--chips", "100", "--dim", str(DIM),
             "--scatterers", "5..15", "--seed", "0"])
    return root


@pytest.fixture(scope="session")
def speckled_set(tmp_path_factory):
    """The same chip family with multiplicative exponential speckle, seed 3."""
    root = tmp_path_factory.mktemp("speckled-set")
    run_cli(["synth", "--out", str(root), "--chips", "100", "--dim", str(DIM),
             "--scatterers", "5..15", "--seed", "3", "--speckle"])
    return root


# ------------------------------------------------------------ criterion 1

@pytest.mark.acceptance(1, "scatterer recovery round trip")
def test_extracted_positions_recover_synthetic_truth(clean_set, measured):
    t0 = time.perf_counter()
    distances = []
    worst = 0.0
    for truth_path in sorted((clean_set / "truth").glob("*.txt")):
        chip = read_chip(clean_set / "images" / f"{truth_path.stem}.csar")
        fits = fit_regions(chip, WINDOW)
        fit_xy = np.array([(f.x, f.y) for f in fits])
        top9 = sorted(parse_truth(truth_path), key=lambda s: -s.amplitude)[:9]
        truth_xy = np.array([(s.x, s.y) for s in top9])
        pairs = greedy_point_match(truth_xy, fit_xy)
        assert len(pairs) == len(top9), f"{truth_path.stem}: unmatched truth"
        chip_d = [d for _, _, d in pairs]
        distances.extend(chip_d)
        worst = max(worst, max(chip_d))
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(distances))
    measured(f"max {worst:.3f} px <= 2.0, mean {mean:.3f} px <= 1.5, "
             f"{elapsed:.1f} s <= 60")
    assert worst <= 2.0
    assert mean <= 1.5
    assert elapsed <= 60.0


# ------------------------------------------------------------ criterion 2

@pytest.mark.acceptance(2, "annotation throughput")
def test_bench_median_instance_time(clean_set, measured):
    out = run_cli(["bench", "--images", str(clean_set / "images"),
                   "--annots", str(clean_set / "annots"),
                   "--repeat", "1", "--seed", "0"])
    median = float(re.search(r"median_ms_per_instance = ([0-9.]+)", out).group(1))
    measured(f"median {median:.1f} ms/instance <= 500, <= 60")
    assert median <= 500.0
    assert median <= 60.0


def test_fit_time_on_a_large_region():
    """Median of 5 fits of a 512x512 region with a 59,826-px disk support: <= 8 ms."""
    window = taylor_window_2d(512, 512)
    psf = base_psf(window)
    rng = np.random.Generator(np.random.PCG64(60))
    yy, xx = np.mgrid[:512, :512]
    disk = (yy - 250.3) ** 2 + (xx - 262.1) ** 2 <= 138 ** 2
    region = np.where(disk, rng.uniform(0.1, 1.0, (512, 512)), 0.0)
    times, cpu = [], []
    for _ in range(5):
        t0, c0 = time.perf_counter(), time.process_time()
        fit_scatterer(region, psf)
        times.append((time.perf_counter() - t0) * 1e3)
        cpu.append((time.process_time() - c0) * 1e3)
    ms = float(np.median(times))
    # process CPU time sums this process's threads: a slow fit whose CPU ms is
    # well under twice its wall ms waited on a BLAS thread that was not running
    assert ms <= 8.0, (
        f"a 59,826-px fit takes {ms:.1f} ms (median); wall ms per fit "
        f"{[round(t, 2) for t in times]}, process CPU ms per fit "
        f"{[round(c, 2) for c in cpu]}")


# ------------------------------------------------------------ criterion 3

@pytest.mark.acceptance(3, "extraction-loop invariants, 200 chips")
def test_decoupling_invariants_over_random_chips(measured):
    params = DecoupleParams()
    violations = []
    total_steps = 0
    for seed in range(200):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(1, 16))
        chip = synth_target(n, GRID, WINDOW, rng, speckle=bool(seed % 2))
        steps = decouple_residuals(chip.image, params)
        total_steps += len(steps)

        if len(steps) > params.n_max:
            violations.append(f"seed {seed}: {len(steps)} regions > n_max")
        prev_residual = np.abs(chip.image.samples)
        prev_peak = np.inf
        for k, step in enumerate(steps):
            if step.residual.min() < 0.0:
                violations.append(f"seed {seed} step {k}: negative residual")
            if np.any(step.residual > prev_residual):
                violations.append(f"seed {seed} step {k}: residual grew")
            peak = float(step.region.values.max())
            if peak > prev_peak:
                violations.append(f"seed {seed} step {k}: peak increased")
            prev_residual = step.residual
            prev_peak = peak

        again = decouple(chip.image, params)
        if len(again) != len(steps) or any(
                not np.array_equal(a.values, b.region.values)
                for a, b in zip(again, steps)):
            violations.append(f"seed {seed}: rerun differs")
    measured(f"{total_steps} extraction steps, {len(violations)} violations")
    assert not violations, violations[:5]


# ------------------------------------------------------------ criterion 4

def _random_oriented_box(rng, center):
    w, h = rng.uniform(4.0, 40.0, size=2)
    ang = rng.uniform(0.0, np.pi)
    c, s = np.cos(ang), np.sin(ang)
    dx, dy = w / 2.0, h / 2.0
    rel = np.array([(-dx, -dy), (dx, -dy), (dx, dy), (-dx, dy)])
    return OrientedBox(rel @ np.array([(c, s), (-s, c)]) + center)


_MC_RES = 1024
_MC_UNIT = (np.arange(_MC_RES, dtype=np.float64) + 0.5) / _MC_RES


def _inside(corners, xs, ys):
    x, y = corners[:, 0], corners[:, 1]
    if 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        corners = corners[::-1]  # normalize to CCW for the half-plane tests
    mask = np.ones((len(ys), len(xs)), dtype=bool)
    for i in range(4):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % 4]
        col = (bx - ax) * (ys - ay)
        row = -(by - ay) * (xs - ax)
        mask &= (col[:, None] + row[None, :]) >= 0.0
    return mask


def _monte_carlo_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Count-ratio IoU on a 1024^2 cell-center grid over the joint AABB."""
    pts = np.vstack([a.corners, b.corners])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    xs = x0 + _MC_UNIT * (x1 - x0)
    ys = y0 + _MC_UNIT * (y1 - y0)
    ma, mb = _inside(a.corners, xs, ys), _inside(b.corners, xs, ys)
    inter = int(np.count_nonzero(ma & mb))
    union = int(np.count_nonzero(ma)) + int(np.count_nonzero(mb)) - inter
    return inter / union if union else 0.0


def _criterion4_pairs() -> list[tuple[OrientedBox, OrientedBox]]:
    """The 1000 seeded box pairs of criterion 4."""
    rng = np.random.Generator(np.random.PCG64(7))
    pairs = []
    for _ in range(1000):
        ca = rng.uniform(20.0, 80.0, size=2)
        cb = ca + rng.uniform(-20.0, 20.0, size=2)
        pairs.append((_random_oriented_box(rng, ca), _random_oriented_box(rng, cb)))
    return pairs


@pytest.mark.acceptance(4, "rotated IoU vs Monte-Carlo rasterization")
def test_rotated_iou_matches_monte_carlo_oracle(measured):
    worst_mc = worst_sym = worst_self = 0.0
    for a, b in _criterion4_pairs():
        iou = rotated_iou(a, b)
        worst_mc = max(worst_mc, abs(iou - _monte_carlo_iou(a, b)))
        worst_sym = max(worst_sym, abs(iou - rotated_iou(b, a)))
        worst_self = max(worst_self, abs(rotated_iou(a, a) - 1.0))
    measured(f"max |iou-mc| {worst_mc:.1e} <= 1e-3, symmetry {worst_sym:.1e}, "
             f"self {worst_self:.1e} <= 1e-9")
    assert worst_mc <= 1e-3
    assert worst_sym <= 1e-9
    assert worst_self <= 1e-9


def test_rotated_iou_time_per_call_over_criterion4_pairs():
    """Median of 7 timed passes over criterion 4's pairs: <= 60 us per call."""
    pairs = _criterion4_pairs()
    passes = []
    for _ in range(7):
        t0 = time.perf_counter()
        for a, b in pairs:
            rotated_iou(a, b)
        passes.append((time.perf_counter() - t0) / len(pairs) * 1e6)
    us = float(np.median(passes))
    assert us <= 60.0, f"rotated_iou takes {us:.1f} us per call"


# ------------------------------------------------------------ criterion 5

def _rect(x0, y0, w, h):
    return OrientedBox.from_rect(x0, y0, x0 + w, y0 + h)


def _exhaustive_ap(dets_by_image, gts_by_image, thr):
    """AP recomputed the slow way: rematch every score-ranked prefix from
    scratch, then integrate the precision envelope over unique recalls."""
    n_gt = sum(len(g) for g in gts_by_image.values())
    flat = [(img, d) for img, ds in sorted(dets_by_image.items()) for d in ds]
    if n_gt == 0 or not flat:
        return 0.0
    flat.sort(key=lambda t: -t[1].score)  # scores are distinct by construction

    points = []
    for k in range(1, len(flat) + 1):
        matched = {img: set() for img in gts_by_image}
        tp = 0
        for img, det in flat[:k]:
            gts = gts_by_image.get(img, [])
            best_iou, best_g = 0.0, -1
            for g, gt in enumerate(gts):
                if g in matched.get(img, set()):
                    continue
                iou = rotated_iou(det.box, gt)
                if iou > best_iou:
                    best_iou, best_g = iou, g
            if best_g >= 0 and best_iou > thr:
                matched[img].add(best_g)
                tp += 1
        points.append((tp / n_gt, tp / k))

    ap, prev_r = 0.0, 0.0
    for r in sorted({r for r, _ in points}):
        if r <= prev_r:
            continue
        p_env = max(p for r2, p in points if r2 >= r)
        ap += (r - prev_r) * p_env
        prev_r = r
    return ap


def _random_detection_problem(rng):
    images = [f"im{j}" for j in range(int(rng.integers(1, 3)))]
    gts = {c: {img: [] for img in images} for c in (0, 1)}
    n_gt = int(rng.integers(2, 6))
    classes = [0, 1] + [int(rng.integers(0, 2)) for _ in range(n_gt - 2)]
    gt_pool = []
    for c in classes:
        img = images[int(rng.integers(0, len(images)))]
        box = _rect(rng.uniform(0, 60), rng.uniform(0, 60),
                    rng.uniform(4, 10), rng.uniform(4, 10))
        gts[c][img].append(box)
        gt_pool.append((c, img, box))

    n_det = int(rng.integers(0, 11))
    scores = rng.permutation(np.linspace(0.05, 0.95, n_det))
    dets = {c: {img: [] for img in images} for c in (0, 1)}
    for score in scores:
        if gt_pool and rng.uniform() < 0.7:
            c, img, gt_box = gt_pool[int(rng.integers(0, len(gt_pool)))]
            (x0, y0), (x1, y1) = gt_box.corners[0], gt_box.corners[2]
            jit = rng.uniform(-2.0, 2.0, size=4)
            box = OrientedBox.from_rect(
                min(x0 + jit[0], x1 + jit[2] - 1e-3),
                min(y0 + jit[1], y1 + jit[3] - 1e-3),
                max(x1 + jit[2], x0 + jit[0] + 1e-3),
                max(y1 + jit[3], y0 + jit[1] + 1e-3))
        else:
            c = int(rng.integers(0, 2))
            img = images[int(rng.integers(0, len(images)))]
            box = _rect(rng.uniform(0, 60), rng.uniform(0, 60),
                        rng.uniform(4, 10), rng.uniform(4, 10))
        dets[c][img].append(Detection(box=box, score=float(score), class_id=c))
    return dets, gts


@pytest.mark.acceptance(5, "average precision vs exhaustive oracle")
def test_average_precision_matches_exhaustive_oracle(measured):
    rng = np.random.Generator(np.random.PCG64(21))
    worst = 0.0
    compared = 0
    for _ in range(50):
        dets, gts = _random_detection_problem(rng)
        for c in (0, 1):
            got = average_precision_grouped(dets[c], gts[c], 0.5)
            want = _exhaustive_ap(dets[c], gts[c], 0.5)
            worst = max(worst, abs(got - want))
            compared += 1

    # worked example: ranks 1 and 3 hit, rank 2 misses -> AP = 5/6
    gt_boxes = [_rect(0, 0, 4, 4), _rect(10, 0, 4, 4)]
    dets = [Detection(box=_rect(0, 0, 4, 4), score=0.9),
            Detection(box=_rect(20, 20, 4, 4), score=0.8),
            Detection(box=_rect(10, 0, 4, 4), score=0.7)]
    worked = average_precision_grouped({"im": dets}, {"im": gt_boxes}, 0.5)
    measured(f"{compared} problems, max |ap-oracle| {worst:.1e} <= 1e-9, "
             f"worked example {worked:.6f} = 5/6")
    assert worst <= 1e-9
    assert abs(worked - 5.0 / 6.0) <= 1e-9


# ------------------------------------------------------------ criterion 6

def _keypoints(points):
    return KeypointSet(points=tuple(points))


@pytest.mark.acceptance(6, "supervision artifacts")
def test_supervision_artifacts(measured):
    rng = np.random.Generator(np.random.PCG64(13))
    h = w = 32

    # unit value exactly at every on-grid keypoint
    for _ in range(10):
        pts = [(int(rng.integers(0, w)), int(rng.integers(0, h)))
               for _ in range(5)]
        m = gt_scatter_map(_keypoints(pts), h, w, sigma=1.0)
        for x, y in pts:
            assert m.values[y, x] == 1.0

    # max-merge dominance on 100 random splits
    for _ in range(100):
        pts = [(float(rng.uniform(0, w - 1)), float(rng.uniform(0, h - 1)))
               for _ in range(int(rng.integers(2, 8)))]
        cut = int(rng.integers(1, len(pts)))
        merged = gt_scatter_map(_keypoints(pts), h, w, sigma=1.5)
        left = gt_scatter_map(_keypoints(pts[:cut]), h, w, sigma=1.5)
        right = gt_scatter_map(_keypoints(pts[cut:]), h, w, sigma=1.5)
        assert np.array_equal(merged.values,
                              np.maximum(left.values, right.values))

    # wider sigma never decreases the map, checked at 100 random pixels
    pts = [(float(rng.uniform(0, w - 1)), float(rng.uniform(0, h - 1)))
           for _ in range(6)]
    for _ in range(100):
        s1 = float(rng.uniform(0.5, 2.0))
        s2 = s1 + float(rng.uniform(0.2, 2.0))
        narrow = gt_scatter_map(_keypoints(pts), h, w, sigma=s1)
        wide = gt_scatter_map(_keypoints(pts), h, w, sigma=s2)
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        assert wide.values[y, x] >= narrow.values[y, x]

    # BCE at the canonical point: pred 0.5 vs gt 1 -> log 2
    half = ScatterMap(np.full((h, w), 0.5))
    ones = ScatterMap(np.ones((h, w)))
    bce_err = abs(bce_loss(half, ones) - np.log(2.0))
    assert bce_err <= 1e-12

    # max-pool pyramid equals a nested-loop oracle, exactly
    m = ScatterMap(rng.uniform(0.0, 1.0, size=(h, w)))
    levels = downsample_pyramid(m, 3, pool="max")
    prev = m.values
    for lvl in levels[1:]:
        hh, ww = prev.shape
        oracle = np.empty((hh // 2, ww // 2))
        for i in range(hh // 2):
            for j in range(ww // 2):
                oracle[i, j] = prev[2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        assert np.array_equal(lvl.values, oracle)
        prev = lvl.values

    measured(f"unit peaks, 100 splits, 100 pixels, bce err {bce_err:.1e}, "
             f"{len(levels)}-level pyramid exact")


# ------------------------------------------------------------ criterion 7

@pytest.mark.acceptance(7, "default configuration constants")
def test_default_config_constants(measured):
    cfg = RunConfig()
    assert cfg.decouple.tau_db == -3.0
    assert cfg.decouple.eps == 1e-6
    assert cfg.decouple.n_max == 20
    assert cfg.keypoint_k == 9
    assert cfg.supervision.sigma == 1.0
    assert cfg.dog.sigma1 == 1.0
    assert cfg.dog.sigma2 == 1.6
    assert cfg.dog.threshold == 5.0
    assert cfg.dog.top_n == 30
    measured("tau -3 dB, eps 1e-6, n_max 20, k 9, sigma 1, dog 1.0/1.6/5/30")


# ------------------------------------------------------------ criterion 8

@pytest.mark.acceptance(8, "physics keypoints beat the DoG baseline")
def test_keypoints_beat_dog_baseline_on_speckled_chips(speckled_set, measured,
                                                       tmp_path):
    skaa = tmp_path / "skaa"
    dog = tmp_path / "dog"
    run_cli(["annotate", "--images", str(speckled_set / "images"),
             "--annots", str(speckled_set / "annots"),
             "--out", str(skaa), "--seed", "3"])
    run_cli(["baseline-dog", "--images", str(speckled_set / "images"),
             "--annots", str(speckled_set / "annots"), "--out", str(dog)])
    report = tmp_path / "compare.txt"
    run_cli(["eval", "--keypoint-compare", "--annots-a", str(skaa),
             "--annots-b", str(dog), "--truth", str(speckled_set / "truth"),
             "--report", str(report)])
    text = report.read_text()
    fraction = float(re.search(r"a_win_fraction = ([0-9.]+)", text).group(1))
    chips = int(re.search(r"chips = (\d+)", text).group(1))
    measured(f"win fraction {fraction:.2f} >= 0.80 over {chips} chips")
    assert chips == 100
    assert fraction >= 0.80


# ----------------------------------------------------------- criterion 10

def _mean_truth_distances(report: Path) -> tuple[float, float]:
    """Mean over chips of the a and b truth-to-keypoint distances of an
    `eval --keypoint-compare` report."""
    pairs = re.findall(r"^chip \S+ a=(\S+) b=(\S+) ", report.read_text(), flags=re.M)
    a, b = np.array(pairs, dtype=np.float64).T
    return float(a.mean()), float(b.mean())


def _top9_recovery(root: Path) -> tuple[float, float, int]:
    """Criterion 1's measure on a synth set: the mean and max distance from
    each chip's top-9-by-amplitude truth scatterers to their greedy matches
    among the extracted positions, and the count of those truths left
    unmatched."""
    distances, unmatched = [], 0
    for truth_path in sorted((root / "truth").glob("*.txt")):
        chip = read_chip(root / "images" / f"{truth_path.stem}.csar")
        fit_xy = np.array([(f.x, f.y) for f in fit_regions(chip, WINDOW)])
        top9 = sorted(parse_truth(truth_path), key=lambda s: -s.amplitude)[:9]
        pairs = greedy_point_match(np.array([(s.x, s.y) for s in top9]), fit_xy)
        distances += [d for _, _, d in pairs]
        unmatched += len(top9) - len(pairs)
    return float(np.mean(distances)), float(np.max(distances)), unmatched


@pytest.mark.acceptance(10, "hard-family keypoints: sidelobe stop vs -60 dB stop and DoG")
def test_sidelobe_stop_keypoints_on_the_hard_family(tmp_path, measured):
    readings = []
    for family, seed, extra in [("clean", "0", []), ("speckled", "3", ["--speckle"])]:
        data = tmp_path / family
        run_cli(["synth", "--out", str(data), "--chips", "90", "--dim", str(DIM),
                 "--scatterers", "5..15", "--seed", seed, "--amp-range", "0.02:1.5",
                 *extra])
        images, annots = str(data / "images"), str(data / "annots")
        runs = {"shipped": [], "1e-3": ["--min-peak-ratio", "0.001"]}
        for name, flags in runs.items():
            run_cli(["annotate", "--images", images, "--annots", annots,
                     "--out", str(tmp_path / f"{family}-{name}"), "--seed", seed, *flags])
        run_cli(["baseline-dog", "--images", images, "--annots", annots,
                 "--out", str(tmp_path / f"{family}-dog")])
        px = {}
        for other in ("1e-3", "dog"):
            report = tmp_path / f"{family}-vs-{other}.txt"
            run_cli(["eval", "--keypoint-compare",
                     "--annots-a", str(tmp_path / f"{family}-shipped"),
                     "--annots-b", str(tmp_path / f"{family}-{other}"),
                     "--truth", str(data / "truth"), "--report", str(report)])
            px["shipped"], px[other] = _mean_truth_distances(report)
        readings.append((family, px, _top9_recovery(data)))
    # the top-9 recovery is reported, not gated
    measured("; ".join(
        f"{family} {px['shipped']:.2f} px <= 1e-3 stop {px['1e-3']:.2f}, "
        f"< DoG {px['dog']:.2f} (top-9 recovery: mean {mean:.3f} px, max {worst:.3f} px, "
        f"{unmatched} unmatched)" for family, px, (mean, worst, unmatched) in readings))
    for _, px, _ in readings:
        assert px["shipped"] <= px["1e-3"]
        assert px["shipped"] < px["dog"]


# ------------------------------------------------------------ criterion 9

def _tree_digest(root: Path) -> dict[str, bytes]:
    """Relative path -> content for every file except run manifests."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != MANIFEST_NAME}


def _manifest_stable_lines(root: Path) -> list[str]:
    path = root / MANIFEST_NAME
    if not path.exists():
        return []
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("timing_ms.")]


def _assert_same_run(run_a: Path, run_b: Path):
    assert _tree_digest(run_a) == _tree_digest(run_b)
    assert _manifest_stable_lines(run_a) == _manifest_stable_lines(run_b)


@pytest.mark.acceptance(9, "CLI rerun and thread-count determinism")
def test_cli_outputs_are_deterministic(tmp_path, measured):
    sets = [tmp_path / "s1", tmp_path / "s2"]
    for out in sets:
        run_cli(["synth", "--out", str(out), "--chips", "10", "--dim", "64",
                 "--scatterers", "3..8", "--seed", "5"])
    _assert_same_run(*sets)
    data = sets[0]
    images, annots = str(data / "images"), str(data / "annots")

    ann = [tmp_path / "a1", tmp_path / "a2", tmp_path / "a4"]
    for out, threads in zip(ann, ("1", "1", "4")):
        run_cli(["annotate", "--images", images, "--annots", annots,
                 "--out", str(out), "--seed", "5", "--threads", threads])
    _assert_same_run(ann[0], ann[1])
    # thread count may not change output bytes (manifests differ by config)
    assert _tree_digest(ann[0]) == _tree_digest(ann[2])

    dog = [tmp_path / "d1", tmp_path / "d2", tmp_path / "d4"]
    for out, threads in zip(dog, ("1", "1", "4")):
        run_cli(["baseline-dog", "--images", images, "--annots", annots,
                 "--out", str(out), "--threads", threads])
    _assert_same_run(dog[0], dog[1])
    assert _tree_digest(dog[0]) == _tree_digest(dog[2])

    heat = [tmp_path / "h1", tmp_path / "h2"]
    for out in heat:
        run_cli(["heatmap", "--annots", str(ann[0]), "--dims", "64x64",
                 "--out", str(out)])
    _assert_same_run(*heat)

    preds = tmp_path / "preds.txt"
    lines = []
    for ann_path in sorted((data / "annots").glob("*.txt")):
        if ann_path.name == MANIFEST_NAME:
            continue
        for inst in parse_annotation(ann_path):
            corners = " ".join(f"{v:.6g}" for v in inst.box.corners.ravel())
            lines.append(f"{ann_path.stem} 0 0.9 {corners}")
    preds.write_text("\n".join(lines) + "\n")
    reports = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
    for rep in reports:
        run_cli(["eval", "--preds", str(preds), "--gts", annots,
                 "--report", str(rep)])
    assert reports[0].read_bytes() == reports[1].read_bytes()

    compares = [tmp_path / "c1.txt", tmp_path / "c2.txt"]
    for rep in compares:
        run_cli(["eval", "--keypoint-compare", "--annots-a", str(ann[0]),
                 "--annots-b", str(dog[0]), "--truth", str(data / "truth"),
                 "--report", str(rep)])
    assert compares[0].read_bytes() == compares[1].read_bytes()

    bench_counts = []
    for _ in range(2):
        out = run_cli(["bench", "--images", images, "--annots", annots,
                       "--repeat", "1", "--seed", "5"])
        bench_counts.append(re.search(r"instances = .*", out).group(0))
    assert bench_counts[0] == bench_counts[1]

    n_files = len(_tree_digest(data)) + len(_tree_digest(ann[0])) + \
        len(_tree_digest(dog[0])) + len(_tree_digest(heat[0])) + 2
    measured(f"{n_files} files byte-identical across reruns, threads 1 == 4")
