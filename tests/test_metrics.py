"""Rotated IoU, average precision, proposal metrics, report rendering."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterkit import metrics
from scatterkit.cli import main
from scatterkit.errors import DegenerateBox, EmptyClasses, EmptyProposals
from scatterkit.metrics import (COLLINEAR_TOL, Detection, EvalReport, OrientedBox,
                                average_precision, average_precision_grouped, clip_reach,
                                greedy_point_match, max_ious, mean_ap,
                                mean_nearest_distance, phr_curve,
                                proposal_precision, rotated_iou)

from oracles import box_area, box_ccw, degenerate_reason, iou_from_parts, rotated_iou_np


def rect(x0, y0, x1, y1):
    return OrientedBox.from_rect(x0, y0, x1, y1)


def _rect_corners(center, w, h, theta):
    c, s = np.cos(theta), np.sin(theta)
    half = np.array([[-w, -h], [w, -h], [w, h], [-w, h]], dtype=float) / 2.0
    return half @ np.array([[c, s], [-s, c]]) + center


def rotated(cx, cy, w, h, theta):
    return OrientedBox(corners=_rect_corners([cx, cy], w, h, theta))


def mc_iou(a, b, n=512):
    corners = np.vstack([a.corners, b.corners])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def inside(box):
        poly = box.ccw_corners()
        ok = np.ones(len(pts), dtype=bool)
        for i in range(4):
            p, q = poly[i], poly[(i + 1) % 4]
            ok &= (q[0] - p[0]) * (pts[:, 1] - p[1]) - \
                  (q[1] - p[1]) * (pts[:, 0] - p[0]) >= 0
        return ok

    ia, ib = inside(a), inside(b)
    union = np.count_nonzero(ia | ib)
    return np.count_nonzero(ia & ib) / union if union else 0.0


def test_box_construction_and_properties():
    box = rect(1.0, 2.0, 5.0, 8.0)
    assert box.area == pytest.approx(24.0, abs=1e-12)
    assert box.centroid == (3.0, 5.0)
    ccw = box.ccw_corners()
    x, y = ccw[:, 0], ccw[:, 1]
    assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0


def test_box_rejects_degenerate_shapes():
    with pytest.raises(DegenerateBox):
        OrientedBox(corners=np.zeros((4, 2)))
    with pytest.raises(DegenerateBox):
        OrientedBox(corners=[[0, 0], [1, 1], [1, 0], [0, 1]])  # bowtie
    with pytest.raises(DegenerateBox):
        OrientedBox(corners=[[0, 0], [1, 0], [2, 0], [3, 0]])  # collinear
    with pytest.raises(DegenerateBox):
        OrientedBox(corners=[[0, 0], [1, np.nan], [1, 1], [0, 1]])


def test_iou_identical_boxes_is_exactly_one():
    box = rotated(3.0, 4.0, 2.0, 5.0, 0.7)
    assert rotated_iou(box, box) == 1.0


def test_iou_disjoint_boxes_is_zero():
    assert rotated_iou(rect(0, 0, 1, 1), rect(5, 5, 6, 6)) == 0.0
    # edge-touching boxes overlap in a zero-area sliver
    assert rotated_iou(rect(0, 0, 1, 1), rect(1, 0, 2, 1)) == 0.0


def test_iou_half_offset_unit_squares():
    assert rotated_iou(rect(0, 0, 1, 1), rect(0.5, 0, 1.5, 1)) == \
        pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_inscribed_diamond():
    square = rect(-1, -1, 1, 1)
    diamond = rotated(0, 0, np.sqrt(2), np.sqrt(2), np.pi / 4)
    # diamond vertices at the square's edge midpoints: inter = diamond,
    # area 2, union 4 + 2 - 2
    assert rotated_iou(square, diamond) == pytest.approx(0.5, abs=1e-9)


def test_iou_symmetry_and_rigid_invariance():
    rng = np.random.Generator(np.random.PCG64(70))
    for _ in range(50):
        a = rotated(*rng.uniform(-5, 5, 2), *rng.uniform(1, 4, 2),
                    rng.uniform(0, np.pi))
        b = rotated(*rng.uniform(-5, 5, 2), *rng.uniform(1, 4, 2),
                    rng.uniform(0, np.pi))
        iou = rotated_iou(a, b)
        assert rotated_iou(b, a) == pytest.approx(iou, abs=1e-9)
        phi, tx, ty = rng.uniform(0, 2 * np.pi), *rng.uniform(-10, 10, 2)
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, s], [-s, c]])
        a2 = OrientedBox(corners=a.corners @ rot + [tx, ty])
        b2 = OrientedBox(corners=b.corners @ rot + [tx, ty])
        assert rotated_iou(a2, b2) == pytest.approx(iou, abs=1e-9)


def test_iou_agrees_with_rasterization():
    rng = np.random.Generator(np.random.PCG64(71))
    for _ in range(5):
        a = rotated(*rng.uniform(-2, 2, 2), *rng.uniform(1, 4, 2),
                    rng.uniform(0, np.pi))
        b = rotated(*rng.uniform(-2, 2, 2), *rng.uniform(1, 4, 2),
                    rng.uniform(0, np.pi))
        assert rotated_iou(a, b) == pytest.approx(mc_iou(a, b), abs=5e-3)


def test_iou_rejects_degenerate_input():
    with pytest.raises(DegenerateBox):
        rect(0, 0, 0, 1)


# Corner sets OrientedBox must reject with the oracle's message, in the
# oracle's order of checks, or accept; the existing DegenerateBox cases first.
DEGENERATE_CASES = [
    np.zeros((4, 2)),
    [[0, 0], [1, 1], [1, 0], [0, 1]],                  # bowtie
    [[0, 0], [1, 0], [2, 0], [3, 0]],                  # collinear
    [[0, 0], [1, np.nan], [1, 1], [0, 1]],
    [[0, 0], [0, 0], [0, 1], [0, 1]],                  # rect(0, 0, 0, 1)
    [[0, 0], [1, 0], [1, 1]],                          # three corners
    [[0, 0], [1, 0], [1, np.inf], [0, 1]],
    [[0, 0], [1e-7, 0], [1e-7, 1e-7], [0, 1e-7]],      # area 1e-14
    [[0, 0], [2, 0], [1, 0.5], [1, 2]],                # dart: one reflex corner
    [[0, 0], [2, 0], [2, 2], [1, 2 + 1e-10]],          # cross within tolerance
    [[1e200, 1e200], [2e200, 1e200], [2e200, 2e200], [1e200, 2e200]],  # area inf
    [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]],  # area overflows to inf
    [[0, 0], [2e200, 1e200], [2e200, 2e200], [1e200, 2e200]],  # area NaN: inf - inf
]


@pytest.mark.parametrize("corners", DEGENERATE_CASES)
def test_box_validation_matches_oracle_in_order(corners):
    reason = degenerate_reason(corners)
    if reason is None:
        OrientedBox(corners=corners)
        return
    with pytest.raises(DegenerateBox) as exc:
        OrientedBox(corners=corners)
    assert str(exc.value) == reason


def _group(rng, kind, size):
    """Four corner arrays of one family, all at one scale of `size` px."""
    w, h = size * rng.uniform(0.3, 1.0, 2)
    theta = rng.uniform(0.0, np.pi)
    center = size * rng.uniform(-2.0, 2.0, 2)
    base = _rect_corners(center, w, h, theta)
    if kind == "jitter":  # the eval benchmark's predictions around a GT box
        return [base] + [_rect_corners(center + rng.normal(0.0, 0.08 * min(w, h), 2),
                                       *(np.array([w, h]) * np.exp(rng.normal(0.0, 0.1, 2))),
                                       theta + rng.normal(0.0, 0.12)) for _ in range(3)]
    if kind == "random":
        return [_rect_corners(size * rng.uniform(-1.0, 1.0, 2),
                              *(size * rng.uniform(0.2, 1.5, 2)), rng.uniform(0.0, np.pi))
                for _ in range(4)]
    if kind == "grid":  # integer-aligned rectangles with shared edges
        x0, y0 = rng.integers(-5, 5, 2)
        wi, hi = rng.integers(1, 6, 2)
        k = int(rng.integers(0, wi + 1))
        return [size * np.array(r, dtype=float) for r in (
            [[x0, y0], [x0 + wi, y0], [x0 + wi, y0 + hi], [x0, y0 + hi]],
            [[x0 + k, y0], [x0 + wi + 2, y0], [x0 + wi + 2, y0 + hi], [x0 + k, y0 + hi]],
            [[x0, y0 + hi], [x0 + wi, y0 + hi], [x0 + wi, y0 + 2 * hi], [x0, y0 + 2 * hi]],
            [[x0, y0], [x0 + wi, y0], [x0 + wi, y0 + 1], [x0, y0 + 1]])]
    if kind == "near":
        return _near_group(rng, size)
    if kind == "winding":  # same boxes, other start corner or direction
        other = _rect_corners(center + rng.normal(0.0, 0.2 * min(w, h), 2), w, h,
                              theta + rng.normal(0.0, 0.3))
        return [base, base[::-1], np.roll(base, int(rng.integers(1, 4)), axis=0),
                np.roll(other[::-1], int(rng.integers(0, 4)), axis=0)]
    # "touching": an identical copy, a mirror image across one edge, and a
    # copy that meets the box at one corner
    i = int(rng.integers(0, 4))
    p, q = base[i], base[(i + 1) % 4]
    d = (q - p) / np.hypot(*(q - p))
    rel = base - p
    mirror = p + 2.0 * np.outer(rel @ d, d) - rel
    return [base, base.copy(), mirror, base + 2.0 * (base[i] - center)]


KINDS = ("jitter", "random", "grid", "winding", "touching")


def _kite(center, length, width, theta):
    """A thin convex kite: tips at -length and +0.6 length along theta."""
    c, s = np.cos(theta), np.sin(theta)
    local = np.array([[-length, 0.0], [0.0, -width], [0.6 * length, 0.0], [0.0, width]])
    return local @ np.array([[c, s], [-s, c]]) + center


def _parallelogram(center, length, height, slant, theta):
    """Opposite edges parallel, corner sine height / hypot(slant, height)."""
    c, s = np.cos(theta), np.sin(theta)
    local = np.array([[0.0, 0.0], [length, 0.0], [length + slant, height], [slant, height]])
    local -= local.mean(axis=0)
    return local @ np.array([[c, s], [-s, c]]) + center


def _placed_at_gap(moving, fixed, axis, sign, gap):
    """`moving` centred on `fixed` across `axis`, and moved along it to the
    side `sign` until the bounds of the two lie `gap` apart."""
    step = fixed.mean(axis=0) - moving.mean(axis=0)
    if sign > 0:
        step[axis] = fixed[:, axis].max() + gap - moving[:, axis].min()
    else:
        step[axis] = fixed[:, axis].min() - gap - moving[:, axis].max()
    return moving + step


def _bound_gap(a, b):
    ca, cb = a.corners, b.corners
    return max(max(cb[:, k].min() - ca[:, k].max(), ca[:, k].min() - cb[:, k].max())
               for k in (0, 1))


def _near_group(rng, size):
    """A rectangle, kite or slanted parallelogram and three copies just
    outside it: at bound gaps straddling the rejection reach (0, 1/2, 1, 2
    or 4 x reach, or 1e-16..1e-2 x size), or turned slightly and moved
    along one of its edge lines, so that its corners fall near that line."""
    w, h = size * rng.uniform(0.3, 1.0, 2)
    # far offsets only for boxes over 1 px, as this family has always been
    # drawn; `test_shoelace_keeps_a_tiny_far_box_exact` covers the others
    offset = rng.choice([0.0, 1e2, 1e4]) if size > 1.0 else 0.0
    center = size * rng.uniform(-2.0, 2.0, 2) + offset * rng.choice([-1.0, 1.0], 2)
    shape = int(rng.integers(0, 4))
    if shape == 0:
        base = _rect_corners(center, w, h, rng.uniform(0.0, np.pi))
    elif shape == 1:  # axis-aligned, exact corner floats
        x0, y0 = center
        base = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
    elif shape == 2:
        base = _kite(center, w, w * 10.0 ** rng.uniform(-3.0, -1.0), rng.uniform(0.0, np.pi))
    else:  # kappa up to ~100
        base = _parallelogram(center, w, h, h * rng.uniform(1.0, 100.0), rng.uniform(0.0, np.pi))
    base_box = OrientedBox(corners=base)
    out = [base]
    for _ in range(3):
        if rng.random() < 0.25:  # along an edge line, turned by up to 1e-11 rad
            i = int(rng.integers(0, 4))
            ccw = base_box.ccw_corners()
            p, q = ccw[i], ccw[(i + 1) % 4]
            edge = q - p
            normal = np.array([edge[1], -edge[0]]) / np.hypot(*edge)  # outward
            phi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -11.0)
            c, s = np.cos(phi), np.sin(phi)
            turned = (base - q) @ np.array([[c, s], [-s, c]]) + q
            offset = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5]) * COLLINEAR_TOL / np.hypot(*edge)
            out.append(turned + rng.uniform(1.5, 40.0) * edge + offset * normal)
            continue
        axis, sign = int(rng.integers(0, 2)), rng.choice([-1.0, 1.0])
        factor = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])
        touching = _placed_at_gap(base, base, axis, sign, 0.0)
        reach = clip_reach(OrientedBox(corners=touching), base_box)
        if rng.random() < 0.5 and np.isfinite(reach):  # inf: no skip for this box
            out.append(_placed_at_gap(base, base, axis, sign, factor * reach))
        else:
            out.append(_placed_at_gap(base, base, axis, sign,
                                      size * 10.0 ** rng.uniform(-16.0, -2.0)))
    return out


def _assert_box_matches_oracle(corners):
    """The box, and its area and CCW corners as the oracle computes them."""
    box = OrientedBox(corners=corners)
    arr = np.asarray(corners, dtype=np.float64)
    area, ccw = box_area(arr), box_ccw(arr)
    assert box.area == area
    assert box.ccw_corners().tobytes() == ccw.tobytes()
    return box, (area, ccw)


def _family(seed, groups, kinds):
    """Groups of four corner arrays, each at one size from 1e-3 to 1e4 px,
    of the kinds in turn."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for g in range(groups):
        size = 10.0 ** rng.uniform(-3.0, 4.0)
        yield _group(rng, kinds[g % len(kinds)], size)


# 100,000 ordered pairs of every kind, and 20,000 of boxes just outside one
# another, where the rejection rule decides
FAMILIES = {"mixed": (74, 6250, KINDS), "near": (75, 1250, ("near",))}


def test_rotated_iou_area_and_ccw_equal_oracle_bit_for_bit():
    """120,000 ordered pairs: every IoU, area and CCW order equals the
    per-call numpy implementation exactly, over sizes from 1e-3 to 1e4 px."""
    mismatches = 0
    for name, expected in (("mixed", 100_000), ("near", 20_000)):
        pairs = 0
        for corners in _family(*FAMILIES[name]):
            boxes = [_assert_box_matches_oracle(c) for c in corners]
            for a, (area_a, ccw_a) in boxes:
                for b, (area_b, ccw_b) in boxes:
                    pairs += 1
                    mismatches += rotated_iou(a, b) != iou_from_parts(area_a, ccw_a,
                                                                      area_b, ccw_b)
        assert pairs == expected
    assert mismatches == 0


def test_clip_stays_in_the_subject_bounds_and_clips_rejected_pairs_to_nothing():
    """What the proof in `rotated_iou` rests on, on both oracle families and
    the spike pair: every vertex the clip returns lies within the subject's
    bounds +- rho, and every pair the rejection rule skips clips to []."""
    rejected = 0
    groups = [list(_spike_pair())]
    for name in FAMILIES:
        groups += [[OrientedBox(corners=c) for c in corners]
                   for corners in _family(*FAMILIES[name])]
    for boxes in groups:
        bounds = [(*box.corners.min(axis=0), *box.corners.max(axis=0),
                   np.abs(box.corners).max()) for box in boxes]
        for a, (x0, y0, x1, y1, am) in zip(boxes, bounds):
            for b, (_, _, _, _, bm) in zip(boxes, bounds):
                poly = metrics._clip_convex(a._ccw_pts, b._ccw_pts)
                rho = metrics.ROUNDING_PER_PX * (1.0 + max(am, bm))
                assert all(x0 - rho <= x <= x1 + rho and y0 - rho <= y <= y1 + rho
                           for x, y in poly)
                if metrics._beyond_reach(a, b):
                    rejected += 1
                    assert poly == []
    assert rejected > 10_000, rejected


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_rotated_iou_equals_oracle_on_drawn_boxes(data):
    scale = 10.0 ** data.draw(st.floats(-3.0, 4.0), label="log10 size")
    corners = []
    for name in "ab":
        c = _rect_corners(
            scale * np.array(data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                       label=f"{name} center")),
            *(scale * np.array(data.draw(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                                         label=f"{name} size"))),
            data.draw(st.floats(0.0, np.pi), label=f"{name} angle"))
        c = np.roll(c, data.draw(st.integers(0, 3), label=f"{name} start"), axis=0)
        corners.append(c[::-1] if data.draw(st.booleans(), label=f"{name} reversed") else c)
    a, _ = _assert_box_matches_oracle(corners[0])
    b, _ = _assert_box_matches_oracle(corners[1])
    assert rotated_iou(a, b) == rotated_iou_np(*corners)
    assert rotated_iou(b, a) == rotated_iou_np(corners[1], corners[0])
    assert rotated_iou(a, a) == rotated_iou_np(corners[0], corners[0])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_rotated_iou_is_finite_and_in_unit_interval_up_to_1e300(data):
    boxes = []
    for name in "ab":
        center = data.draw(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                           label=f"{name} center")
        lw, lh = data.draw(st.tuples(st.floats(-3.0, 300.0), st.floats(-3.0, 300.0)),
                           label=f"{name} log10 size")
        corners = _rect_corners(np.array(center), 10.0 ** lw, 10.0 ** lh,
                                data.draw(st.floats(0.0, np.pi), label=f"{name} angle"))
        try:
            boxes.append(OrientedBox(corners=corners))
        except DegenerateBox:
            return  # only accepted boxes are scored
    a, b = boxes
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        iou = rotated_iou(x, y)
        assert np.isfinite(iou) and 0.0 <= iou <= 1.0


def test_shoelace_keeps_a_tiny_far_box_exact():
    """A ~6e-4 px kite at (1e4, 1e4): summed on raw coordinates, whose
    products round to ~1e-8, its area read twice the exact value, and a
    copy moved up by its own height read 0 and was rejected."""
    kite = _kite(np.array([1e4, 1e4]), 3.75e-4, 1.28e-5, 0.6)
    height = np.ptp(kite[:, 1])
    for corners in (kite, kite + [0.0, height]):
        pts = [(Fraction(x), Fraction(y)) for x, y in corners.tolist()]
        exact = abs(sum(px * qy - qx * py for (px, py), (qx, qy)
                        in zip(pts, pts[1:] + pts[:1]))) / 2
        assert OrientedBox(corners=corners).area == pytest.approx(float(exact), rel=1e-12)


# sides and offsets near 1e154, where the shoelace terms leave the float range
OVERFLOW_WINDOW = [
    [[0, 0], [1e154, 0], [1e154, 1e154], [0, 1e154]],      # area inf
    [[-7e153, 0], [0, -7e153], [7e153, 0], [0, 7e153]],    # area 9.8e307, terms sum to inf
    [[-1e154, -1e154], [3e153, -1e154], [3e153, 3e153], [-1e154, 3e153]],  # area inf
    _rect_corners([0.0, 1.2e154], 1e140, 1e140, 0.5),      # ~70 ulps of its offset wide
    # accepted, although their raw-coordinate shoelace terms overflow
    [[1.5e154, 1.5e154], [3e154, 1.5e154], [3e154, 1.6e154], [1.5e154, 1.6e154]],
    [[1e154, 1e154], [1.5e154, 1e154], [1.5e154, 1.5e154], [1e154, 1.5e154]],
    _rect_corners([1e154, -1e154], 1.3e154, 6.5e153, 0.5),
]


@pytest.mark.parametrize("corners", OVERFLOW_WINDOW)
def test_boxes_near_1e154_build_or_raise_degenerate_box_and_score_in_unit_interval(corners):
    reason = degenerate_reason(corners)
    if reason is not None:
        with pytest.raises(DegenerateBox) as exc:
            OrientedBox(corners=corners)
        assert str(exc.value) == reason
        return
    arr = np.asarray(corners, dtype=np.float64)
    step = np.ptp(arr, axis=0)
    a = OrientedBox(corners=arr)
    for shift in (0.25, 3.0):  # overlapping, then far apart
        b = OrientedBox(corners=arr + shift * step)
        for x, y in ((a, b), (b, a), (a, a)):
            iou = rotated_iou(x, y)
            assert np.isfinite(iou) and 0.0 <= iou <= 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                assert iou == rotated_iou_np(x.corners, y.corners)


def test_eval_of_predictions_near_1e154_exits_3_or_scores(tmp_path, capsys):
    gts = tmp_path / "gts"
    gts.mkdir()
    (gts / "img0.txt").write_text("0 0 4 0 4 4 0 4 ship 0\n")
    preds = tmp_path / "preds.txt"
    # a 5e153 px square at 1e154: its raw shoelace terms overflow, but not
    # those about its first corner
    preds.write_text("img0 0 0.9 1e154 1e154 1.5e154 1e154 1.5e154 1.5e154 1e154 1.5e154\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 0
    assert "map = 0.000000" in capsys.readouterr().out
    preds.write_text("img0 0 0.9 0 0 1e154 0 1e154 1e154 0 1e154\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 3
    err = capsys.readouterr().err
    assert "box area is not finite" in err and "Traceback" not in err


def _spike_pair():
    """A 100 px square and a 199 x 1 px box 1 px to its left whose top edge
    runs just below the line of the square's bottom edge, turned by 1e-13
    rad: with an unclamped cut fraction, the clip's 1e-9 tolerance carries a
    cut along that line into the square, and the IoU reads 1.2e-14 although
    the bounds are 1 px apart."""
    square = rect(0, 0, 100, 100)
    ang = 0.5e-11 / 51
    u, n = np.array([np.cos(ang), np.sin(ang)]), np.array([-np.sin(ang), np.cos(ang)])
    p = np.array([-1.0, -0.5e-11])
    q = p - 199.0 * u
    return OrientedBox(corners=np.array([q - n, p - n, p, q])), square


@pytest.fixture
def clip_calls(monkeypatch):
    """Every (subject, clip) pair `rotated_iou` hands to the polygon clip."""
    calls = []
    real = metrics._clip_convex

    def counting(subject, clip):
        calls.append((subject, clip))
        return real(subject, clip)

    monkeypatch.setattr(metrics, "_clip_convex", counting)
    return calls


def test_rotated_iou_scores_the_spike_pair_zero_without_the_clip(clip_calls):
    a, b = _spike_pair()
    assert _bound_gap(a, b) > 0.99 > 1e6 * clip_reach(a, b)
    assert rotated_iou(a, b) == rotated_iou_np(a.corners, b.corners) == 0.0
    assert clip_calls == []


def test_rotated_iou_skips_the_clip_beyond_the_reach_and_only_there(clip_calls):
    rng = np.random.Generator(np.random.PCG64(76))
    skipped = 0
    for trial in range(200):
        size = 10.0 ** rng.uniform(-2.0, 3.0)
        if trial % 4 == 3:  # kappa > 1
            b_corners = _parallelogram(size * rng.uniform(-1.0, 1.0, 2), size, 0.3 * size,
                                       size * rng.uniform(0.3, 3.0), rng.uniform(0.0, np.pi))
        else:
            b_corners = _rect_corners(size * rng.uniform(-1.0, 1.0, 2),
                                      *(size * rng.uniform(0.3, 1.0, 2)), rng.uniform(0.0, np.pi))
        b = OrientedBox(corners=b_corners)
        a0 = _rect_corners([0.0, 0.0], *(size * rng.uniform(0.3, 1.0, 2)), rng.uniform(0.0, np.pi))
        axis = int(rng.integers(0, 2))
        r = clip_reach(OrientedBox(corners=_placed_at_gap(a0, b_corners, axis, 1, 0.0)), b)
        assert np.isfinite(r)
        for factor in (0.0, 0.5, 1.0, 2.0, 4.0, 1e3):
            a_corners = _placed_at_gap(a0, b_corners, axis, 1, factor * r)
            a = OrientedBox(corners=a_corners)
            while _bound_gap(a, b) > factor * clip_reach(a, b) and factor <= 1.0:
                a_corners = a_corners.copy()
                a_corners[:, axis] = np.nextafter(a_corners[:, axis], -np.inf)
                a = OrientedBox(corners=a_corners)
            before = len(clip_calls)
            assert rotated_iou(a, b) == rotated_iou_np(a_corners, b_corners)
            clipped = len(clip_calls) - before
            if factor <= 1.0:
                assert _bound_gap(a, b) <= clip_reach(a, b)
                assert clipped == 1
            else:
                assert _bound_gap(a, b) > clip_reach(a, b)
                assert clipped == 0
                skipped += 1
    assert skipped == 600


def test_clip_reach_is_infinite_where_the_proof_does_not_hold():
    square = rect(0, 0, 1, 1)
    assert clip_reach(square, square) == pytest.approx(4.0 * (1e-9 + 2.0 ** -40 * 2.0))
    flat = OrientedBox(corners=[[0, 0], [1, 0], [2, 0], [1, 1]])  # a flat corner
    assert clip_reach(square, flat) == np.inf
    dented = OrientedBox(corners=[[0, 0], [2, 0], [1, 2], [0.5 + 1e-11, 1]])  # reflex within tol
    assert clip_reach(square, dented) == np.inf
    # past 2**500 the clip's products may overflow
    big = 2.0 ** 501
    assert clip_reach(rect(big, 0, big + 2.0 ** 460, 2.0 ** 460), square) == np.inf


def test_eval_clips_exactly_the_pairs_whose_bounds_overlap(tmp_path, monkeypatch, clip_calls):
    rng = np.random.Generator(np.random.PCG64(77))
    gts = tmp_path / "gts"
    gts.mkdir()
    pred_lines = []
    for image in ("img0", "img1"):
        lines = []
        for g in range(6):
            center = np.array([40.0 + 60.0 * (g % 3), 40.0 + 70.0 * (g // 3)]) + rng.uniform(-5, 5, 2)
            w, h, theta = rng.uniform(16, 40), rng.uniform(10, 24), rng.uniform(0.0, np.pi)
            nums = " ".join(f"{v:.6g}" for v in _rect_corners(center, w, h, theta).ravel())
            lines.append(f"{nums} {('ship', 'tank')[g % 2]} 0")
            for _ in range(2):
                pred = _rect_corners(center + rng.normal(0.0, 2.0, 2), w * rng.uniform(0.8, 1.2),
                                     h * rng.uniform(0.8, 1.2), theta + rng.normal(0.0, 0.1))
                nums = " ".join(f"{v:.6g}" for v in pred.ravel())
                pred_lines.append(f"{image} {g % 2} {rng.uniform(0.1, 1.0):.3f} {nums}")
        (gts / f"{image}.txt").write_text("\n".join(lines) + "\n")
    preds = tmp_path / "preds.txt"
    preds.write_text("\n".join(pred_lines) + "\n")
    scored = []
    real_iou = metrics.rotated_iou

    def recording(a, b):
        scored.append(_bound_gap(a, b))
        return real_iou(a, b)

    monkeypatch.setattr(metrics, "rotated_iou", recording)
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 0
    overlapping = sum(gap <= 0.0 for gap in scored)
    assert all(gap <= 0.0 or gap > 1e-3 for gap in scored)
    assert 0 < overlapping < len(scored)
    assert len(clip_calls) == overlapping


def test_max_ious_is_the_best_iou_per_proposal():
    gts = [rect(0, 0, 4, 4), rect(2, 0, 6, 4)]
    props = [rect(0, 0, 4, 4), rect(3, 0, 7, 4), rect(10, 10, 14, 14)]
    assert max_ious(props, gts).tolist() == [1.0, rotated_iou(props[1], gts[1]), 0.0]
    assert max_ious(props, []).tolist() == [0.0, 0.0, 0.0]
    assert max_ious([], gts).shape == (0,)


def test_ap_single_perfect_detection():
    gt = [rect(0, 0, 4, 4)]
    assert average_precision([Detection(rect(0, 0, 4, 4), 0.9)], gt, 0.5) == 1.0


def test_ap_single_missed_detection():
    gt = [rect(0, 0, 4, 4)]
    assert average_precision([Detection(rect(10, 10, 14, 14), 0.9)], gt, 0.5) == 0.0


def test_ap_empty_inputs():
    assert average_precision([], [rect(0, 0, 1, 1)], 0.5) == 0.0
    assert average_precision([Detection(rect(0, 0, 1, 1), 0.5)], [], 0.5) == 0.0


def test_ap_worked_example_five_sixths():
    gts = [rect(0, 0, 4, 4), rect(10, 0, 14, 4)]
    dets = [
        Detection(rect(0, 0, 4, 4), 0.9),        # rank 1: hit
        Detection(rect(20, 20, 24, 24), 0.8),    # rank 2: miss
        Detection(rect(10, 0, 14, 4), 0.7),      # rank 3: hit
    ]
    assert average_precision(dets, gts, 0.5) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_ap_score_transform_invariance():
    gts = [rect(0, 0, 4, 4), rect(10, 0, 14, 4), rect(20, 0, 24, 4)]
    dets = [Detection(rect(0, 0, 4, 4), 0.9),
            Detection(rect(10.5, 0, 14.5, 4), 0.6),
            Detection(rect(40, 40, 44, 44), 0.4)]
    base = average_precision(dets, gts, 0.5)
    squeezed = [Detection(d.box, d.score / 3.0) for d in dets]
    assert average_precision(squeezed, gts, 0.5) == base


def test_ap_duplicate_detections_only_first_matches():
    gts = [rect(0, 0, 4, 4)]
    dets = [Detection(rect(0, 0, 4, 4), 0.9), Detection(rect(0, 0, 4, 4), 0.8)]
    # second hit on a matched GT is a false positive; envelope keeps AP at 1
    assert average_precision(dets, gts, 0.5) == 1.0


def test_ap_grouped_keeps_images_separate():
    box = rect(0, 0, 4, 4)
    dets = {"img0": [Detection(box, 0.9)], "img1": [Detection(box, 0.8)]}
    gts = {"img0": [box], "img1": [box]}
    assert average_precision_grouped(dets, gts, 0.5) == 1.0
    # same geometry, one image: second det has no unmatched GT left
    assert average_precision([Detection(box, 0.9), Detection(box, 0.8)],
                             [box], 0.5) == 1.0
    merged = average_precision_grouped(
        {"only": dets["img0"] + dets["img1"]}, {"only": [box]}, 0.5)
    assert merged == 1.0  # still 1: the FP tail never lowers the envelope


def test_ap_grouped_orders_equal_scores_by_centroid_y_then_x_then_image():
    # one GT, one hit and one miss at the same score: AP is 1 when the hit
    # ranks first and 0.5 when the miss does
    box = rect(0, 0, 4, 4)  # centroid (2, 2)

    def ap(miss, miss_image="a", hit_image="a"):
        dets = {hit_image: [Detection(box, 0.5)]}
        dets.setdefault(miss_image, []).append(Detection(miss, 0.5))
        return average_precision_grouped(dets, {hit_image: [box]}, 0.5)

    assert ap(rect(20, 20, 24, 24)) == 1.0     # miss centroid y 22 > 2
    assert ap(rect(20, -20, 24, -16)) == 0.5   # miss centroid y -18 < 2
    assert ap(rect(20, 0, 24, 4)) == 1.0       # same y, miss x 22 > 2
    assert ap(rect(-20, 0, -16, 4)) == 0.5     # same y, miss x -18 < 2
    assert ap(box, miss_image="b") == 1.0      # same centroid, image "a" < "b"
    assert ap(box, miss_image="a", hit_image="b") == 0.5


def test_ap_threshold_validation():
    with pytest.raises(ValueError):
        average_precision([], [], 0.0)
    with pytest.raises(ValueError):
        average_precision([], [], 1.0)


def test_mean_ap():
    assert mean_ap({"a": 0.5, "b": 1.0}) == pytest.approx(0.75)
    with pytest.raises(EmptyClasses):
        mean_ap({})


def test_phr_curve_known_values():
    gts = [rect(0, 0, 4, 4)]
    proposals = [rect(0, 0, 4, 4),        # IoU 1.0
                 rect(2, 0, 6, 4),        # IoU 1/3
                 rect(10, 10, 14, 14)]    # IoU 0
    curve = phr_curve(proposals, gts, [0.25, 0.5, 0.9])
    assert curve == [(0.25, pytest.approx(2 / 3)), (0.5, pytest.approx(1 / 3)),
                     (0.9, pytest.approx(1 / 3))]


def test_phr_curve_is_non_increasing():
    rng = np.random.Generator(np.random.PCG64(72))
    for _ in range(10):
        gts = [rotated(*rng.uniform(0, 10, 2), *rng.uniform(1, 3, 2),
                       rng.uniform(0, np.pi)) for _ in range(3)]
        props = [rotated(*rng.uniform(0, 10, 2), *rng.uniform(1, 3, 2),
                         rng.uniform(0, np.pi)) for _ in range(6)]
        rates = [r for _, r in phr_curve(props, gts, list(np.arange(0.05, 0.8, 0.05)))]
        assert all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))


def test_phr_validation():
    with pytest.raises(EmptyProposals):
        phr_curve([], [rect(0, 0, 1, 1)], [0.5])
    with pytest.raises(ValueError):
        phr_curve([rect(0, 0, 1, 1)], [], [0.5, 0.5])


def test_proposal_precision_counts_strict_hits():
    gts = [rect(0, 0, 4, 4)]
    props = [rect(0, 0, 4, 4), rect(10, 10, 14, 14)]
    assert proposal_precision(props, gts, 0.5) == 0.5
    assert proposal_precision([rect(0, 0, 4, 4)], gts, 0.5) == 1.0
    # max-IoU exactly at the threshold does not count
    assert proposal_precision([rect(0, 0, 4, 4)], gts, 1.0 - 1e-15) == 1.0
    with pytest.raises(EmptyProposals):
        proposal_precision([], gts)


def test_greedy_point_match_examples():
    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(0.0, 1.0), (10.0, 1.0), (5.0, 5.0)]
    assert greedy_point_match(a, b) == [(0, 0, 1.0), (1, 1, 1.0)]
    # distance tie resolves to the lower b index
    pairs = greedy_point_match([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)])
    assert pairs == [(0, 0, 1.0)]
    # each point used at most once
    pairs = greedy_point_match([(0.0, 0.0), (0.1, 0.0)], [(0.0, 0.0)])
    assert pairs == [(0, 0, 0.0)]


def test_greedy_point_match_prefers_globally_closest_first():
    a = [(0.0, 0.0), (4.0, 0.0)]
    b = [(3.0, 0.0)]
    assert greedy_point_match(a, b) == [(1, 0, 1.0)]


def test_mean_nearest_distance_single_pair():
    assert mean_nearest_distance([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)


def test_mean_nearest_distance_candidate_reuse():
    # both references use the middle candidate; the far one never matters
    refs = [(0.0, 0.0), (0.0, 2.0)]
    cands = [(0.0, 1.0), (100.0, 100.0)]
    assert mean_nearest_distance(refs, cands) == pytest.approx(1.0)
    # greedy bipartite would have charged the second reference ~140 px
    pairs = greedy_point_match(refs, cands)
    assert max(d for _, _, d in pairs) > 100.0


def test_mean_nearest_distance_matches_double_loop_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        refs = rng.uniform(0.0, 50.0, size=(int(rng.integers(1, 12)), 2))
        cands = rng.uniform(0.0, 50.0, size=(int(rng.integers(1, 12)), 2))
        expected = np.mean([
            min(np.hypot(r[0] - c[0], r[1] - c[1]) for c in cands)
            for r in refs])
        assert mean_nearest_distance(refs, cands) == pytest.approx(
            expected, abs=1e-12)


def test_mean_nearest_distance_extra_candidate_never_hurts():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(20):
        refs = rng.uniform(0.0, 50.0, size=(6, 2))
        cands = rng.uniform(0.0, 50.0, size=(4, 2))
        base = mean_nearest_distance(refs, cands)
        extra = np.vstack([cands, rng.uniform(0.0, 50.0, size=(1, 2))])
        assert mean_nearest_distance(refs, extra) <= base + 1e-12


def test_mean_nearest_distance_rejects_empty_sets():
    with pytest.raises(ValueError):
        mean_nearest_distance([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        mean_nearest_distance([(0.0, 0.0)], [])


def test_eval_report_validation_and_render():
    report = EvalReport(per_class_ap={"tank": 0.5}, map50=0.5,
                        phr=[(0.25, 1.0), (0.5, 0.5)], proposal_precision=0.75,
                        iou_thr=0.5, class_id_map={"tank": 0})
    text = report.render()
    assert text.startswith("# scatterkit evaluation report")
    assert "iou_threshold = 0.5" in text
    assert "ap class=tank id=0 value=0.500000" in text
    assert "map = 0.500000" in text
    assert "proposal_precision = 0.750000" in text
    assert "phr t=0.25 rate=1.000000" in text
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        EvalReport(per_class_ap={"x": 1.5}, map50=0.5)


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection(rect(0, 0, 1, 1), 1.5)
    with pytest.raises(ValueError):
        Detection(rect(0, 0, 1, 1), -0.1)
