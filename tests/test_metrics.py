"""Rotated IoU, average precision, proposal metrics, report rendering."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatterkit import metrics
from scatterkit.annotio import parse_annotation, parse_predictions
from scatterkit.cli import main
from scatterkit.errors import DegenerateBox, EmptyClasses, EmptyProposals
from scatterkit.metrics import (COLLINEAR_TOL, Detection, EvalReport, OrientedBox,
                                average_precision, average_precision_grouped,
                                boxes_from_corners, clip_reach,
                                greedy_point_match, iou_matrix, max_ious, mean_ap,
                                mean_nearest_distance, phr_curve,
                                proposal_precision, rotated_iou)

from oracles import (average_precision_grouped_scalar, beyond_reach, box_area, box_ccw,
                     box_fields_scalar, clip_convex_scalar, clip_reach_scalar,
                     clipped_iou_scalar, degenerate_reason, envelope_ap_np, hit_rates_loop,
                     iou_from_parts, max_ious_scalar, rotated_iou_np, rotated_iou_scalar)
from test_acceptance import _criterion4_pairs


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
    np.zeros((1, 4, 2)),                               # a stack of one box
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
                if beyond_reach(a, b):
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


def _assert_centroid_is_the_numpy_mean(box):
    mean = box.corners.mean(axis=0)
    assert np.array(box.centroid).tobytes() == mean.tobytes()
    assert all(type(v) is float for v in box.centroid)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_centroid_is_the_numpy_mean_of_the_corners_bit_for_bit(data):
    """The centroid stored when the box is built is `corners.mean(axis=0)`
    to the bit, at sizes from 1e-3 to 1e4 px and offsets up to 1e15 px."""
    size = 10.0 ** data.draw(st.floats(-3.0, 4.0), label="log10 size")
    offset = np.array(data.draw(st.tuples(st.floats(-1e15, 1e15), st.floats(-1e15, 1e15)),
                                label="offset"))
    corners = _rect_corners(offset, *(size * np.array(data.draw(
        st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)), label="size"))),
        data.draw(st.floats(0.0, np.pi), label="angle"))
    assume(degenerate_reason(corners) is None)
    _assert_centroid_is_the_numpy_mean(OrientedBox(corners=corners))


def test_centroid_is_the_numpy_mean_on_the_oracle_family():
    for corners in _family(*FAMILIES["mixed"]):
        for c in corners:
            _assert_centroid_is_the_numpy_mean(OrientedBox(corners=c))


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
    # accepted, although twice their area is not finite
    [[0, 0], [1e154, 0], [1e154, 1e154], [0, 1e154]],      # area 1e308
    [[-7e153, 0], [0, -7e153], [7e153, 0], [0, 7e153]],    # area 9.8e307
    [[-1e154, -1e154], [3e153, -1e154], [3e153, 3e153], [-1e154, 3e153]],  # area 1.69e308
    _rect_corners([0.0, 1.2e154], 1e140, 1e140, 0.5),      # ~70 ulps of its offset wide
    # accepted, although their raw-coordinate shoelace terms overflow
    [[1.5e154, 1.5e154], [3e154, 1.5e154], [3e154, 1.6e154], [1.5e154, 1.6e154]],
    [[1e154, 1e154], [1.5e154, 1e154], [1.5e154, 1.5e154], [1e154, 1.5e154]],
    _rect_corners([1e154, -1e154], 1.3e154, 6.5e153, 0.5),
    # area inf: its halved terms are finite, their sum is not
    [[0, 0], [1.4e154, 0], [1.4e154, 1.4e154], [0, 1.4e154]],
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
    # a 1e154 px square: its area, 1e308, is finite although twice it is not
    preds.write_text("img0 0 0.9 0 0 1e154 0 1e154 1e154 0 1e154\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 0
    assert "map = 0.000000" in capsys.readouterr().out
    preds.write_text("img0 0 0.9 0 0 1.4e154 0 1.4e154 1.4e154 0 1.4e154\n")
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 3
    err = capsys.readouterr().err
    assert "box area is not finite" in err and "Traceback" not in err


def _float_bits(value):
    """`value`, a float or nested tuples of floats, as float.hex strings: two
    values map to equal results only if every float is bit-identical (a
    numpy scalar is refused, not read as a float)."""
    if type(value) is float:
        return value.hex()
    assert type(value) is tuple, type(value)
    return tuple(_float_bits(v) for v in value)


def _assert_box_fields_equal_the_scalar_oracle(got, corners):
    """`got`, a box or a DegenerateBox, is what the one-box scalar
    derivation gives these corners, field for field and bit for bit."""
    try:
        want = box_fields_scalar(corners)
    except DegenerateBox as exc:
        assert isinstance(got, DegenerateBox) and str(got) == str(exc)
        assert str(exc) == degenerate_reason(corners)
        return
    assert degenerate_reason(corners) is None
    assert isinstance(got, OrientedBox), got
    for name in ("_area", "_centroid", "_ccw_pts", "_reach"):
        assert _float_bits(got.__dict__[name]) == _float_bits(want[name]), name
    assert _float_bits(got.bounds) == _float_bits(want["_reach"][:4])
    assert got.corners.tobytes() == np.asarray(corners, dtype=np.float64).tobytes()
    assert got.ccw_corners().tobytes() == want["_ccw"].tobytes()
    assert not got.corners.flags.writeable and not got.ccw_corners().flags.writeable


def _wide_range_corners(seed, count):
    """Rotated rectangles from 1e-3 to 1e150 px, up to 3 sizes from the
    origin or offset by up to 1e150 px, and a few with signed zeros."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        size = 10.0 ** rng.uniform(-3.0, 150.0)
        offset = 10.0 ** rng.uniform(-3.0, 150.0) if rng.random() < 0.5 else 0.0
        center = size * rng.uniform(-3.0, 3.0, 2) + offset * rng.choice([-1.0, 1.0], 2)
        out.append(_rect_corners(center, *(size * rng.uniform(0.2, 1.0, 2)),
                                 rng.uniform(0.0, np.pi)))
    out += [np.array([[-0.0, 0.0], [1.0, -0.0], [1.0, 1.0], [0.0, 1.0]]),
            np.array([[0.0, -0.0], [-0.0, 0.0], [-1.0, 1.0], [-0.0, 1.0]])[::-1],
            np.array([[0.0, -0.0], [0.0, -2.0], [-0.0, -3.0], [-0.0, 2.0]])]
    return out


BOX_FIELD_SETS = {
    "criterion 4": lambda: [box.corners for pair in _criterion4_pairs() for box in pair],
    "overflow window": lambda: OVERFLOW_WINDOW,
    "degenerate": lambda: [c for c in DEGENERATE_CASES if np.shape(c) == (4, 2)],
    "1e-3 to 1e150 px": lambda: _wide_range_corners(76, 3000),
}


@pytest.mark.parametrize("name", list(BOX_FIELD_SETS))
def test_box_fields_equal_the_scalar_oracle_bit_for_bit(name):
    """Every field, the bounds and each rejection message, whether the boxes
    are built as one stack or one at a time."""
    corners = [np.asarray(c, dtype=np.float64) for c in BOX_FIELD_SETS[name]()]
    stacked = boxes_from_corners(np.array(corners))
    assert len(stacked) == len(corners)
    for c, got in zip(corners, stacked):
        _assert_box_fields_equal_the_scalar_oracle(got, c)
        try:
            single = OrientedBox(corners=c)
        except DegenerateBox as exc:
            single = exc
        _assert_box_fields_equal_the_scalar_oracle(single, c)


@st.composite
def _box_row(draw):
    """One box's corners: a rotated rectangle from 1e-3 to 1e6 px, a
    quadrilateral near 1e154 px whose edge products overflow at its far
    corner (so a NaN sine there, first or later), a sliver with an
    infinite edge (so a NaN first sine), a near-collinear, signed-zero or
    arbitrary quadrilateral; in CCW or CW order, and now and then with a
    NaN or +-inf in one corner."""
    kind = draw(st.sampled_from(["rect", "rect", "1e154", "wide", "collinear", "zeros", "any"]))
    if kind == "rect":
        scale = 10.0 ** draw(st.floats(-3.0, 6.0))
        cx, cy = scale * draw(st.floats(-2.0, 2.0)), scale * draw(st.floats(-2.0, 2.0))
        w, h = scale * draw(st.floats(0.05, 1.5)), scale * draw(st.floats(0.05, 1.5))
        theta = draw(st.floats(0.0, math.pi))
        c, s = math.cos(theta), math.sin(theta)
        xy = [v for dx, dy in ((-w, -h), (w, -h), (w, h), (-w, h))
              for v in (cx + (dx * c - dy * s) / 2, cy + (dx * s + dy * c) / 2)]
    elif kind == "1e154":  # corners at sorted angles about a centre, one of them far out
        cx, cy = 1e154 * draw(st.floats(-2.0, 2.0)), 1e154 * draw(st.floats(-2.0, 2.0))
        far = draw(st.integers(0, 3))
        xy = []
        for i, theta in enumerate(sorted(draw(st.floats(0.0, 2 * math.pi)) for _ in range(4))):
            r = draw(st.floats(1.5e154, 3e154) if i == far else st.floats(5e152, 5e153))
            xy += [cx + r * math.cos(theta), cy + r * math.sin(theta)]
    elif kind == "wide":  # a sliver whose edge 1 is longer than the float range
        a, b = 1.7e308 * draw(st.floats(0.5, 1.0)), 1.7e308 * draw(st.floats(0.5, 1.0))
        h, lam = 10.0 ** draw(st.floats(-3.0, 0.0)), draw(st.floats(0.1, 0.9))
        xy = [0.0, -h, a, 0.0, -b, 0.0, -b * (1.0 - lam), -h * (lam + 0.1)]
    elif kind == "collinear":  # corners within 1e-8 px of one line
        slope = draw(st.floats(-3.0, 3.0))
        xy = []
        for _ in range(4):
            t = draw(st.floats(-10.0, 10.0))
            xy += [t, slope * t + 10.0 ** draw(st.floats(-14.0, -8.0)) * draw(st.floats(-1.0, 1.0))]
    elif kind == "zeros":
        zero = st.sampled_from([0.0, -0.0])
        xy = [draw(zero), draw(zero), 1.0, draw(zero), 1.0, 1.0, draw(zero), 1.0]
    else:
        xy = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=8, max_size=8))
    if draw(st.booleans()):  # CCW <-> CW
        xy = [v for i in (3, 2, 1, 0) for v in xy[2 * i:2 * i + 2]]
    if draw(st.integers(0, 4)) == 0:
        xy[draw(st.integers(0, 7))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(xy).reshape(4, 2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rows=st.lists(_box_row(), max_size=24))
def test_drawn_box_stacks_equal_the_scalar_oracle_bit_for_bit(rows):
    """Stacks of 0-24 drawn boxes: every field and rejection message is the
    scalar oracle's, whether a box is built in the stack or as
    `OrientedBox(c)`. The drawn rows reach the kernel's NaN rules: the
    convexity check passes over a NaN turn, and a NaN first sine leaves
    kappa inf where a later one is passed over."""
    stacked = boxes_from_corners(np.array(rows).reshape(-1, 4, 2))
    assert len(stacked) == len(rows)
    for c, got in zip(rows, stacked):
        try:
            single = OrientedBox(corners=c)
        except DegenerateBox as exc:
            single = exc
        with np.errstate(over="ignore", invalid="ignore"):  # the oracles' numpy scalars
            _assert_box_fields_equal_the_scalar_oracle(got, c)
            _assert_box_fields_equal_the_scalar_oracle(single, c)


def test_box_stack_without_rows_builds_nothing():
    assert boxes_from_corners(np.empty((0, 4, 2))) == []


def test_box_corners_are_a_read_only_copy():
    corners = np.array([[1.0, 2.0], [5.0, 2.5], [4.5, 8.0], [0.5, 7.5]])
    stack = np.array([corners, corners[::-1]])
    box = OrientedBox(corners=corners)
    assert corners.flags.writeable
    corners[0, 0] = 99.0
    assert box.corners[0, 0] == 1.0 and box.bounds[0] == 0.5
    with pytest.raises(ValueError):
        box.corners[0, 0] = 3.0
    boxes = boxes_from_corners(stack)
    assert not stack.flags.writeable
    for box, row in zip(boxes, stack):
        assert not box.corners.flags.writeable and not box.ccw_corners().flags.writeable
        assert box.corners.tobytes() == row.tobytes()


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


def test_clip_reach_equals_the_scalar_oracle_bit_for_bit():
    """`clip_reach` reads the matrix rule. On every ordered pair of each
    group of both oracle families, and where the proof does not hold (a
    flat or dented b, a box past 2**500), it is the scalar formula to the
    bit, inf included."""
    square = rect(0, 0, 1, 1)
    flat = OrientedBox(corners=[[0, 0], [1, 0], [2, 0], [1, 1]])
    dented = OrientedBox(corners=[[0, 0], [2, 0], [1, 2], [0.5 + 1e-11, 1]])
    big = 2.0 ** 501
    special = [square, flat, dented, rect(big, 0, big + 2.0 ** 460, 2.0 ** 460)]
    assert [[clip_reach(a, b) == np.inf for b in special] for a in special] == \
        [[False, True, True, True]] * 3 + [[True] * 4]
    groups = [special, list(_spike_pair())]
    for name in FAMILIES:
        groups += [[OrientedBox(corners=c) for c in corners]
                   for corners in _family(*FAMILIES[name])]
    mismatches = [(a.corners, b.corners) for boxes in groups for a in boxes for b in boxes
                  if clip_reach(a, b).hex() != clip_reach_scalar(a, b).hex()]
    assert mismatches == []


def test_eval_clips_exactly_the_pairs_whose_bounds_overlap(tmp_path, clip_calls):
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
    # every same-image (prediction, GT) pair, keyed as the clip sees it
    pairs = {}
    for image, dets in parse_predictions(preds).items():
        for gt in parse_annotation(gts / f"{image}.txt"):
            for det in dets:
                pairs[det.box._ccw_pts, gt.box._ccw_pts] = _bound_gap(det.box, gt.box)
    assert len(pairs) == 2 * 12 * 6  # no two boxes share their corners
    overlapping = {key for key, gap in pairs.items() if gap <= 0.0}
    assert 0 < len(overlapping) < len(pairs)
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 0
    # each overlapping pair is clipped once, and no other pair: neither one
    # across images nor one whose bounds lie apart (all of those by > 1e-3)
    assert all(gap <= 0.0 or gap > 1e-3 for gap in pairs.values())
    assert Counter(clip_calls) == Counter(overlapping)


def _assert_matrix_is_the_scalar_rule(boxes_a, boxes_b):
    """`iou_matrix` is the retired scalar path (`rotated_iou_scalar`), and
    its skip mask the scalar rule (`beyond_reach`), entry for entry and bit
    for bit; returns the skip mask."""
    shape = (len(boxes_a), len(boxes_b))
    expected = np.array([[rotated_iou_scalar(a, b) for b in boxes_b]
                         for a in boxes_a]).reshape(shape)
    ious = iou_matrix(boxes_a, boxes_b)
    assert ious.shape == shape and ious.dtype == np.float64
    assert ious.tobytes() == expected.tobytes()
    skip = metrics._skip_mask(boxes_a, boxes_b)
    assert skip.shape == shape
    assert skip.tolist() == [[beyond_reach(a, b) for b in boxes_b] for a in boxes_a]
    return skip


def test_iou_matrix_equals_rotated_iou_on_both_oracle_families():
    """Sets of 12 boxes (three groups) from both families, each set scored
    against the next: near pairs on both sides of the reach, kites and
    slanted parallelograms, shared edges, and sizes from 1e-3 to 1e4 px."""
    skipped = pairs = 0
    for name in FAMILIES:
        seed, _, kinds = FAMILIES[name]
        sets = [[OrientedBox(corners=c) for group in chunk for c in group]
                for chunk in zip(*[_family(seed, 240, kinds)] * 3)]
        for boxes_a, boxes_b in zip(sets, sets[1:] + sets[:1]):
            for a, b in ((boxes_a, boxes_a), (boxes_a, boxes_b)):
                skip = _assert_matrix_is_the_scalar_rule(a, b)
                skipped += int(skip.sum())
                pairs += skip.size
    assert pairs == 2 * 2 * 80 * 144
    assert 0.2 * pairs < skipped < 0.95 * pairs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_iou_matrix_equals_rotated_iou_on_drawn_box_sets(data):
    scale = 10.0 ** data.draw(st.floats(-3.0, 4.0), label="log10 size")
    sets = []
    for name in "ab":
        n = data.draw(st.integers(0, 5), label=f"{name} count")
        sets.append([OrientedBox(corners=_rect_corners(
            scale * np.array(data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                                       label=f"{name} center")),
            *(scale * np.array(data.draw(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                                         label=f"{name} size"))),
            data.draw(st.floats(0.0, np.pi), label=f"{name} angle"))) for _ in range(n)])
    _assert_matrix_is_the_scalar_rule(*sets)
    _assert_matrix_is_the_scalar_rule(sets[1], sets[0])


def test_iou_matrix_on_the_spike_pair_infinite_reach_and_huge_coordinates():
    """No numpy warning (pytest turns them into errors) where a bounds gap
    or the reach overflows, and the scalar rule's verdict everywhere."""
    spike, square = _spike_pair()
    flat = OrientedBox(corners=[[0, 0], [1, 0], [2, 0], [1, 1]])  # kappa = inf
    far_flat = OrientedBox(corners=[[150, 0], [151, 0], [152, 0], [151, 1]])
    big = 2.0 ** 501
    past_2_500 = [rect(big, 0, big + 2.0 ** 460, 2.0 ** 460), rect(-big - 2.0 ** 460, 0, -big, 1.0)]
    # ~1e308 apart along x: their gap overflows to inf
    edge_of_range = [rect(1e308, 0, 1.1e308, 1e-300), rect(-1.1e308, 0, -1e308, 1e-300)]
    boxes = [spike, square, flat, far_flat, *past_2_500, *edge_of_range]
    assert clip_reach(square, flat) == np.inf
    assert clip_reach(past_2_500[0], square) == np.inf
    skip = _assert_matrix_is_the_scalar_rule(boxes, boxes)
    assert skip[0, 1] and skip[1, 0]  # the spike pair
    assert not skip[:, 2:4].any()  # nothing is clipped by a flat corner unscored
    assert skip[3, 1]  # the flat box is far from the square
    assert not skip[4:].any() and not skip[:, 4:].any()  # nor beyond 2**500


def test_iou_matrix_of_empty_lists():
    boxes = [rect(0, 0, 1, 1), rect(3, 0, 4, 1)]
    for a, b in (([], boxes), (boxes, []), ([], [])):
        assert _assert_matrix_is_the_scalar_rule(a, b).shape == (len(a), len(b))
    assert max_ious(boxes, []).tolist() == [0.0, 0.0]
    assert max_ious([], []).shape == (0,)


def _assert_kernel_is_the_retired_clip(boxes, sizes):
    """For both orders of every pair of `boxes`, the clip's polygon and the
    IoU equal the retired clip's and area's bit for bit; counts each
    polygon's size in `sizes`."""
    for a in boxes:
        for b in boxes:
            poly = metrics._clip_convex(a._ccw_pts, b._ccw_pts)
            want = clip_convex_scalar(a._ccw_pts, b._ccw_pts)
            assert _float_bits(tuple(poly)) == _float_bits(tuple(want))
            assert _float_bits(metrics._clipped_iou(a, b)) == _float_bits(clipped_iou_scalar(a, b))
            sizes[len(poly)] += 1


def _kernel_edge_boxes():
    """Boxes where the clip's corner cases live: on the line -COLLINEAR_TOL
    outside the unit square's bottom and left edges (whose distances are
    exact), so a corner sits on the tolerance and a cut is clamped; a flat
    and a dented corner (kappa = inf); overlapping boxes past 2**500; boxes
    ~1e308 apart; and the spike pair."""
    tol = COLLINEAR_TOL
    big = 2.0 ** 501
    kite = [[0.4, -0.5], [0.8, -tol], [0.6, 0.5], [0.2, -tol]]
    return [rect(0, 0, 1, 1), rect(0.25, -tol, 0.75, 0.5), rect(-tol, 0.25, 0.5, 0.75),
            OrientedBox(corners=kite), OrientedBox(corners=np.array(kite)[::-1, ::-1]),
            OrientedBox(corners=[[0, 0], [1, 0], [2, 0], [1, 1]]),
            OrientedBox(corners=[[0, 0], [1, 2e-10], [2, 0], [1, 1]]),
            rect(big, 0, big + 2.0 ** 460, 2.0 ** 460),
            rect(big + 2.0 ** 459, 2.0 ** 458, big + 2.0 ** 461, 2.0 ** 461),
            rect(-big - 2.0 ** 460, 0, -big, 1.0),
            rect(1e308, 0, 1.1e308, 1e-300), rect(1.05e308, 0, 1.15e308, 2e-300),
            rect(-1.1e308, 0, -1e308, 1e-300), *_spike_pair()]


def test_clip_and_iou_are_the_retired_clip_bit_for_bit():
    """Every polygon and IoU of the pair kernel equals the retired clip's,
    over criterion 4's pairs, both oracle families, the corner cases and
    the near-1e154 window, with every polygon size from 0 and 3 to 8: of
    the 124,288 ordered pairs, 24,108 clip to nothing and 2,035, 80,368,
    6,339, 6,419, 2,930 and 2,089 to 3 to 8 vertices."""
    sizes = Counter()
    for a, b in _criterion4_pairs():
        _assert_kernel_is_the_retired_clip([a, b], sizes)
    for name in FAMILIES:
        for corners in _family(*FAMILIES[name]):
            _assert_kernel_is_the_retired_clip([OrientedBox(corners=c) for c in corners], sizes)
    _assert_kernel_is_the_retired_clip(_kernel_edge_boxes(), sizes)
    for corners in OVERFLOW_WINDOW:
        if degenerate_reason(corners) is None:
            arr = np.asarray(corners, dtype=np.float64)
            _assert_kernel_is_the_retired_clip(
                [OrientedBox(corners=arr + shift * np.ptp(arr, axis=0)) for shift in (0, 0.25, 3)],
                sizes)
    assert {0, 3, 4, 5, 6, 7, 8} <= set(sizes), sizes


def test_the_corner_cases_reach_the_tolerance_and_the_clamp():
    """The kite's corner (0.8, -tol) lies exactly on the tolerance line of
    the square's bottom edge, so that edge keeps it, and cuts the segment
    to it from (0.4, -0.5) at t = 1, clamped down from just above 1."""
    square, _, _, kite = _kernel_edge_boxes()[:4]
    dp, dq = -0.5, -COLLINEAR_TOL  # the two corners' distances from the edge
    assert dp / (dp - dq) > 1.0
    poly = metrics._clip_convex(kite._ccw_pts, square._ccw_pts)
    assert poly[:2] == [(0.4 + 1.0 * (0.8 - 0.4), -0.5 + 1.0 * (dq + 0.5)), (0.8, dq)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_clip_and_iou_are_the_retired_clip_on_drawn_box_sets(data):
    scale = 10.0 ** data.draw(st.floats(-3.0, 4.0), label="log10 size")
    boxes = []
    for i in range(data.draw(st.integers(2, 5), label="count")):
        c = _rect_corners(
            scale * np.array(data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                       label=f"{i} center")),
            *(scale * np.array(data.draw(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
                                         label=f"{i} size"))),
            data.draw(st.floats(0.0, np.pi), label=f"{i} angle"))
        c = np.roll(c, data.draw(st.integers(0, 3), label=f"{i} start"), axis=0)
        boxes.append(OrientedBox(corners=c[::-1] if data.draw(st.booleans(),
                                                              label=f"{i} reversed") else c))
    _assert_kernel_is_the_retired_clip(boxes, Counter())


_RATE_GRID = [0.0, 0.05, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_hit_rates_equal_one_mean_per_threshold_bit_for_bit(data):
    """Empty and long arrays, values exactly on a threshold, and repeated
    or unsorted thresholds."""
    value = st.one_of(st.sampled_from(_RATE_GRID), st.floats(0.0, 1.0))
    best = np.array(data.draw(st.lists(value, max_size=300), label="best"), dtype=np.float64)
    thresholds = data.draw(st.lists(value, max_size=20), label="thresholds")
    got = metrics._hit_rates(best, thresholds)
    assert _float_bits(tuple(got)) == _float_bits(tuple(hit_rates_loop(best, thresholds)))


def test_hit_rates_on_the_threshold_repeated_and_empty():
    best = np.array([0.5, 0.5, 0.25, 1.0, 0.0, 1 / 3, 0.7])
    thresholds = [0.5, 0.5, 0.25, 0.0, 1.0, 1 / 3, 0.7, 0.7]
    assert metrics._hit_rates(best, thresholds) == hit_rates_loop(best, thresholds) == \
        [2 / 7, 2 / 7, 5 / 7, 6 / 7, 0.0, 4 / 7, 1 / 7, 1 / 7]
    assert metrics._hit_rates(np.zeros(0), thresholds) == [0.0] * 8
    assert metrics._hit_rates(best, []) == [] == hit_rates_loop(best, [])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_envelope_ap_on_floats_equals_the_numpy_scalar_oracle(data):
    flags = data.draw(st.lists(st.booleans(), max_size=200), label="flags")
    n_gt = data.draw(st.integers(max(1, sum(flags)), sum(flags) + 40), label="n_gt")
    got = metrics._envelope_ap(flags, n_gt)
    assert type(got) is float and got.hex() == envelope_ap_np(flags, n_gt).hex()


def test_phr_and_precision_keep_their_errors_and_messages():
    box = rect(0, 0, 1, 1)
    with pytest.raises(EmptyProposals, match=r"^PHR of an empty proposal list$"):
        phr_curve([], [box], [0.5])
    for thresholds in ([0.5, 0.5], [0.5, 0.4]):
        with pytest.raises(ValueError, match=r"^thresholds must be sorted strictly ascending$"):
            phr_curve([box], [box], thresholds)
    with pytest.raises(EmptyProposals, match=r"^precision of an empty proposal list$"):
        proposal_precision([], [box])
    assert phr_curve([box], [box], []) == []


def _drawn_detections(rng, images=4, per_image=8, classes=3):
    """Jittered predictions around GT boxes in a few images, with tied
    scores and centroids, wrong classes, an image without GT and one
    without predictions."""
    dets, gts = {}, {}
    for i in range(images):
        img = f"im{i}"
        boxes = [(int(rng.integers(0, classes)),
                  rotated(*rng.uniform(20, 180, 2), *rng.uniform(8, 30, 2), rng.uniform(0, np.pi)))
                 for _ in range(per_image)]
        if i != images - 1:
            gts[img] = boxes
        if i == 0:
            continue
        ds = []
        for cid, box in boxes:
            cx, cy = box.centroid
            for _ in range(2):
                ds.append(Detection(rotated(cx + rng.normal(0, 2), cy + rng.normal(0, 2),
                                            *rng.uniform(8, 30, 2), rng.uniform(0, np.pi)),
                                    round(float(rng.uniform(0, 1)), 1),
                                    cid if rng.random() < 0.8 else int(rng.integers(0, classes + 1))))
            ds.append(Detection(box, 0.5, cid))  # exact copies tie on centroid
        dets[img] = ds
    return dets, gts


def test_ap_and_max_ious_equal_the_retired_per_pair_loops():
    rng = np.random.Generator(np.random.PCG64(78))
    for _ in range(12):
        dets, gts = _drawn_detections(rng)
        for cid in range(4):
            ds = {img: [d for d in v if d.class_id == cid] for img, v in dets.items()}
            gs = {img: [b for c, b in v if c == cid] for img, v in gts.items()}
            for thr in (0.1, 0.5, 0.7):
                assert average_precision_grouped(ds, gs, thr) == \
                    average_precision_grouped_scalar(ds, gs, thr)
        for img, ds in dets.items():
            boxes = [b for _, b in gts.get(img, [])]
            proposals = [d.box for d in ds]
            assert max_ious(proposals, boxes).tobytes() == \
                max_ious_scalar(proposals, boxes).tobytes()


def test_evaluate_detections_composes_the_library_metrics():
    """Per-class AP over one shared matrix per image equals each class's own
    `average_precision_grouped`; PHR and precision pool `max_ious`."""
    rng = np.random.Generator(np.random.PCG64(79))
    names = ("plane", "ship", "tank")
    thresholds = [0.05 * i for i in range(1, 17)]
    for _ in range(8):
        dets, gts = _drawn_detections(rng)
        named = {img: [(names[c], b) for c, b in v] for img, v in gts.items()}
        ids = {name: i for i, name in enumerate(names)}
        report = metrics.evaluate_detections(dets, named, ids, 0.5, thresholds)
        present = sorted({n for v in named.values() for n, _ in v})
        expected_ap = {name: average_precision_grouped(
            {img: [d for d in v if d.class_id == ids[name]] for img, v in dets.items()},
            {img: [b for n, b in v if n == name] for img, v in named.items()}, 0.5)
            for name in present}
        assert report.per_class_ap == expected_ap
        assert report.map50 == mean_ap(expected_ap)
        best = np.concatenate([max_ious([d.box for d in v], [b for _, b in named.get(img, [])])
                               for img, v in sorted(dets.items())])
        assert report.phr == [(t, float(np.mean(best > t))) for t in thresholds]
        assert report.proposal_precision == float(np.mean(best > 0.5))
        assert report.class_id_map == ids and report.iou_thr == 0.5


def test_evaluate_detections_without_predictions_or_gt():
    box = rect(0, 0, 4, 4)
    report = metrics.evaluate_detections({}, {"im": [("tank", box)]}, {"tank": 0}, 0.5, [0.5])
    assert report.per_class_ap == {"tank": 0.0} and report.phr == [(0.5, 0.0)]
    report = metrics.evaluate_detections({"im": [Detection(box, 0.9)]}, {}, {}, 0.5, [0.5])
    assert report.per_class_ap == {} and report.map50 == 0.0
    assert report.phr == [(0.5, 0.0)] and report.proposal_precision == 0.0
    with pytest.raises(ValueError):
        metrics.evaluate_detections({}, {}, {}, 1.0, [])


def test_phr_labels_take_the_fewest_decimals_that_read_back():
    default = [round(0.05 * i, 10) for i in range(1, 17)]
    assert [metrics._threshold_label(t) for t in default] == [f"{t:.2f}" for t in default]
    rng = np.random.Generator(np.random.PCG64(80))
    for t in [0.0, 1.0, 0.505, 1e-5, 0.1 + 0.2, *rng.uniform(0, 1, 200), *rng.uniform(0, 1, 50).round(4)]:
        label = metrics._threshold_label(float(t))
        decimals = len(label.split(".")[1])
        assert float(label) == t and decimals >= 2
        assert decimals == 2 or float(f"{t:.{decimals - 1}f}") != t


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


def test_ap_equal_iou_matches_the_lower_gt_index():
    # the first detection overlaps both GT boxes by exactly 1/3; it takes
    # box 0, which the second detection needed, so that one misses
    gts = [rect(0, 0, 4, 4), rect(4, 0, 8, 4)]
    dets = [Detection(rect(2, 0, 6, 4), 0.9), Detection(rect(0, 0, 4, 4), 0.8)]
    assert rotated_iou(dets[0].box, gts[0]) == rotated_iou(dets[0].box, gts[1]) > 0.3
    assert average_precision(dets, gts, 0.3) == 0.5
    assert average_precision(dets, gts[::-1], 0.3) == 1.0


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
