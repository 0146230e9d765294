"""Rotated-box IoU, average precision, PHR curves, and proposal precision.

Conventions (also emitted in every eval report):
  - IoU is exact convex-polygon intersection over union, computed by
    Sutherland-Hodgman clipping with 1e-9 collinearity tolerance; slivers
    below 1e-12 px^2 count as zero.
  - Each cut point lies on the clipped segment (its fraction is clamped to
    [0, 1]), and areas are summed about a polygon's first corner.
  - A pair whose bounding rectangles lie further apart than a proven reach
    scores 0.0 without the clip, exactly as the clip would score it (the
    rule (R1) and its proof are in `_skip_mask`); no IoU value changes.
  - A detection matches a ground-truth box only with IoU strictly greater
    than the threshold; matching is greedy in score order against the
    highest-IoU unmatched ground truth (ties -> lower GT index).
  - AP is the area under the monotone precision envelope of the full PR
    curve (all-point interpolation).
  - A report prints each PHR threshold with the fewest decimals, at least
    2, that read back as the threshold (0.05, 0.505).

An evaluation (`evaluate_detections`) computes each image's IoU matrix, over
all its predictions and all its GT boxes, once (`iou_matrix`). The rejection
rule (R1) is applied to the whole matrix on arrays, so only the pairs within
reach go through the clip, once each; `rotated_iou` is the 1 x 1 matrix.
Per-class AP matches on that class's rows and columns, and the row maxima
give PHR and proposal precision. The matrix's temporaries scale as
predictions x GT per image, 8 bytes a pair: trivial at 36 x 12, ~0.8 MB
each at 1,000 x 100.

Boxes and pairs are both worked on Python floats. `boxes_from_corners`
checks and derives every stored value of each row of a stack of corners in
one straight-line pass, and a single `OrientedBox` is its one-row case: an
array pass over the stack paid numpy's fixed cost on every call, 5 to 7
times the scalar pass on the one-box file of a chip, and was only ~10 %
faster at 1,000 boxes. The clip works one pair at a time: an array
Sutherland-Hodgman clip pays numpy's fixed cost per call (several times the
scalar clip on a 1 x 1 matrix) and gained nothing at ~60 pairs an image.

The pair kernel (`_clip_convex`, then the area and ratio in `_clipped_iou`)
walks each clip edge once, with no list of distances and no helper calls,
but it runs the same IEEE operations, in the same order, as the retired
per-edge clip and shoelace area kept in `tests/oracles.py`, so every IoU
equals theirs bit for bit; the tests hold the polygons and IoUs to them.
PHR and proposal precision share one rule (`_hit_rates`): the share of
predictions whose best IoU lies strictly above a threshold, every threshold
of a sweep in one comparison. The shares are sums of 0s and 1s, so they
equal a per-threshold mean bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBox, EmptyClasses, EmptyProposals
from .keypoints import _pairwise_sum

COLLINEAR_TOL = 1e-9
SLIVER_AREA = 1e-12
# rho = ROUNDING_PER_PX * (1 + M) bounds every rounding error of the clip on
# coordinates up to M in magnitude (each is a few 2**-53 * M).
ROUNDING_PER_PX = 2.0 ** -40
_MIN_SINE = 2.0 ** -30    # flatter corners get kappa = inf: never skipped
_MAX_COORD = 2.0 ** 500   # above this 1 + M the clip's products may overflow

_REASONS = ("box corners contain NaN/Inf", "box area is not finite",
            "box has (near-)zero area", "corners do not form a convex simple quadrilateral")


def boxes_from_corners(stack: np.ndarray) -> list[OrientedBox | DegenerateBox]:
    """One `OrientedBox`, or the `DegenerateBox` it would raise, per row of an
    (n, 4, 2) float64 stack of corners; nothing is raised.

    Every check and stored value of `OrientedBox` is derived here, each row's
    box on Python floats in one straight pass, and `OrientedBox(corners)` is
    the one-row case. The stack is made read-only, and each box's `corners`
    is its row. An overflow is inf or NaN and warns nothing. Edge lengths
    come from `math.hypot` (np.hypot differs in the last bit on some edges),
    the centroid is (((x0 + x1) + x2) + x3) / 4, as `corners.mean(axis=0)`
    sums, and the bounds come from `min` and `max`.

    Every shoelace area here and in `_clipped_iou` is taken the same way.
    The terms are taken about the first corner: on raw coordinates each
    would carry a rounding error of ~1e-16 x offset**2, which swamps the
    area of a small polygon far from the origin. They are summed in the
    order of np.add.reduce (`_pairwise_sum` reproduces it on Python floats),
    which on small arrays matches neither `sum` nor `math.fsum`. Each term
    is halved before the sum, not the sum after it: the halving is exact
    above the subnormal range, and a polygon whose area is finite but whose
    doubled area is not (above ~9e307) keeps its finite area. About corner
    0, the terms of corners 0, 1 and of corners 3, 0 are cross products with
    a zero vector: +-0.0, or NaN where the other vector overflows, and then
    the term of corners 1, 2 or of corners 2, 3, which holds that vector
    too, is not finite either. So a box's area is the sum of its other two
    terms, bit for bit the four-term sum wherever that is finite and not
    zero; elsewhere both are rejected with the same message.
    """
    stack.setflags(write=False)
    out = []
    append, new, hypot, inf, tol = out.append, object.__new__, math.hypot, math.inf, COLLINEAR_TOL
    for corners, pts in zip(stack, stack.reshape(len(stack), 8).tolist()):
        x0, y0, x1, y1, x2, y2, x3, y3 = pts
        # edge i runs from corner i to i + 1; turn i, at corner i + 1, is
        # edge i x edge i + 1
        ex0, ey0, ex1, ey1 = x1 - x0, y1 - y0, x2 - x1, y2 - y1
        ex2, ey2, ex3, ey3 = x3 - x2, y3 - y2, x0 - x3, y0 - y3
        t0, t1, t2, t3 = (ex0 * ey1 - ex1 * ey0, ex1 * ey2 - ex2 * ey1,
                          ex2 * ey3 - ex3 * ey2, ex3 * ey0 - ex0 * ey3)
        # corners 2 and 3 about corner 0 (corner 1 about it is edge 0)
        ax, ay, bx, by = x2 - x0, y2 - y0, x3 - x0, y3 - y0
        s = 0.5 * (ex0 * ay - ax * ey0) + 0.5 * (ax * by - bx * ay)
        area = abs(s)
        # simple + convex <=> all turns share a sign; a NaN turn is passed over
        if ((t0 > tol or t1 > tol or t2 > tol or t3 > tol)
                and (t0 < -tol or t1 < -tol or t2 < -tol or t3 < -tol)
                or not SLIVER_AREA < area < inf):
            append(DegenerateBox(_REASONS[0 if not all(map(math.isfinite, pts)) else
                                          1 if not area < inf else
                                          2 if not area > SLIVER_AREA else 3]))
            continue
        # what the rejection rule (R1) reads: kappa = 1 / the smallest corner
        # sine and delta = COLLINEAR_TOL / the shortest edge (`_skip_mask`),
        # both inf for a flat, reflex or NaN corner
        l0, l1, l2, l3 = hypot(ex0, ey0), hypot(ex1, ey1), hypot(ex2, ey2), hypot(ex3, ey3)
        d0, d1, d2, d3 = l0 * l1, l1 * l2, l2 * l3, l3 * l0
        kappa4 = delta = inf
        if d0 > 0.0 and d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
            o = 1.0 if s > 0.0 else -1.0
            # `min` keeps a NaN first sine and passes over a later one
            sine = min(t0 * o / d0, t1 * o / d1, t2 * o / d2, t3 * o / d3)
            if sine >= _MIN_SINE:
                kappa4, delta = 4.0 / sine, tol / min(l0, l1, l2, l3)
        xmin, ymin, xmax, ymax = min(x0, x1, x2, x3), min(y0, y1, y2, y3), \
            max(x0, x1, x2, x3), max(y0, y1, y2, y3)
        box = new(OrientedBox)
        box.__dict__.update(
            corners=corners, _area=area,
            _centroid=((x0 + x1 + x2 + x3) / 4.0, (y0 + y1 + y2 + y3) / 4.0),
            _ccw=corners if s > 0.0 else corners[::-1],
            _ccw_pts=((x0, y0), (x1, y1), (x2, y2), (x3, y3)) if s > 0.0
            else ((x3, y3), (x2, y2), (x1, y1), (x0, y0)),
            _reach=(xmin, ymin, xmax, ymax, max(-xmin, -ymin, xmax, ymax), kappa4, delta))
        append(box)
    return out


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle stored as 4 (x, y) corners in consistent winding.

    The area, the centroid and the counter-clockwise (CCW) corner order are
    computed once, when the box is built; the CCW corners are also kept as
    float pairs for the clip. So is what the exact rejection rule (R1)
    reads: the bounds, the largest |coordinate|, delta = COLLINEAR_TOL /
    shortest edge and kappa = 1 / the smallest sine of a corner angle (1 for
    a rectangle; inf for a flat, reflex or non-finite corner). A box is the
    one-row case of `boxes_from_corners`, which builds a file's boxes from
    one stack of corners; `corners` is a read-only copy of what was given.
    """

    corners: np.ndarray

    def __post_init__(self):
        stack = np.array(self.corners, dtype=np.float64)[None]
        if stack.shape != (1, 4, 2):
            raise DegenerateBox(f"expected 4 corner pairs, got shape {stack.shape[1:]}")
        (box,) = boxes_from_corners(stack)
        if isinstance(box, DegenerateBox):
            raise box
        self.__dict__.update(box.__dict__)

    @property
    def area(self) -> float:
        return self._area

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the corners, as Python floats."""
        return self._reach[:4]

    @property
    def centroid(self) -> tuple[float, float]:
        return self._centroid

    def ccw_corners(self) -> np.ndarray:
        return self._ccw

    @staticmethod
    def from_rect(x0: float, y0: float, x1: float, y1: float) -> "OrientedBox":
        return OrientedBox(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


@dataclass(frozen=True)
class Detection:
    """One scored rotated-box prediction."""

    box: OrientedBox
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


_INSIDE = -COLLINEAR_TOL  # a signed distance >= this keeps its point


def _clip_convex(subject, clip) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip a convex CCW polygon by a convex CCW polygon.

    Both polygons and the result are sequences of (x, y) float pairs. Each
    edge of `clip` in turn, from clip[0] -> clip[1] to clip[-1] -> clip[0],
    keeps the points whose signed distance d = cross(edge, p - start) is at
    least -COLLINEAR_TOL and cuts each segment p -> q whose ends it splits
    at t = d_p / (d_p - d_q), clamped to [0, 1], so the cut point stays on
    the segment where the tolerance band gives d_p and d_q the same sign.
    """
    output = list(subject)
    for (ax, ay), (bx, by) in zip(clip, (*clip[1:], clip[0])):
        if not output:
            break
        ex, ey = bx - ax, by - ay
        pts = output
        output = []
        append = output.append
        p = pts[0]
        px, py = p
        dp = ex * (py - ay) - ey * (px - ax)
        for q in (*pts[1:], p):
            qx, qy = q
            dq = ex * (qy - ay) - ey * (qx - ax)
            if dp >= _INSIDE:
                append(p)
                if dq < _INSIDE:
                    t = dp / (dp - dq)
                    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                    append((px + t * (qx - px), py + t * (qy - py)))
            elif dq >= _INSIDE:
                t = dp / (dp - dq)
                t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                append((px + t * (qx - px), py + t * (qy - py)))
            p, px, py, dp = q, qx, qy, dq
    return output


def _gap_and_reach(boxes_a: list[OrientedBox],
                   boxes_b: list[OrientedBox]) -> tuple[np.ndarray, np.ndarray]:
    """Entry [i, j] of each array, for a = boxes_a[i] and b = boxes_b[j]:
    the largest of the four separations of the bounds of a and b, and the
    reach 4 kappa_b (delta_b + rho) where 1 + M <= 2**500, else inf (the
    names are those of `_skip_mask`). Read from each box's stored `_reach`;
    an overflow is inf, as in Python's float arithmetic."""
    n_a = len(boxes_a)
    r = np.array([box._reach for box in (*boxes_a, *boxes_b)], dtype=np.float64).reshape(-1, 7).T
    ra, rb = r[:, :n_a, None], r[:, None, n_a:]  # a along rows, b along columns
    with np.errstate(over="ignore"):
        sep = np.maximum(rb[:2] - ra[2:4], ra[:2] - rb[2:4])  # along x, along y
        gap = np.maximum(sep[0], sep[1])
        m = 1.0 + np.maximum(ra[4], rb[4])
        reach = rb[5] * (rb[6] + ROUNDING_PER_PX * m)  # 4 kappa_b (delta_b + rho)
    reach[m > _MAX_COORD] = np.inf
    return gap, reach


def clip_reach(a: OrientedBox, b: OrientedBox) -> float:
    """How far apart the bounds of a and b must lie for `rotated_iou(a, b)`
    to skip the clip: 4 kappa_b (delta_b + rho) where 1 + M <= 2**500,
    else inf (rule (R1) of `_skip_mask`)."""
    return float(_gap_and_reach([a], [b])[1][0, 0])


def _skip_mask(boxes_a: list[OrientedBox], boxes_b: list[OrientedBox]) -> np.ndarray:
    """Rule (R1) on every pair: entry [i, j] is True only where the clip of
    a = boxes_a[i] by b = boxes_b[j] provably returns no vertex.

    The clip (`_clipped_iou`) is a's CCW corners clipped by b's CCW edges
    0..3 in turn (`_clip_convex`). Edge j keeps a point p iff its
    d_j(p) = cross(e_j, p - A_j) >= -tol (tol = COLLINEAR_TOL): p lies at
    most tol / |e_j| <= delta_b outside the edge's line. A segment from a
    kept to a dropped point, or back, is cut at t = d_p / (d_p - d_q),
    clamped to [0, 1].

    Rejection rule. Let gap be the largest of the four separations of the
    bounds of a and b, M the largest |coordinate| of either box and
    rho = 2**-40 (1 + M). The clip is skipped, and 0.0 scored, when
      (R1) gap > 4 kappa_b (delta_b + rho) and 1 + M <= 2**500
    (`_gap_and_reach`; `clip_reach` reads one pair's reach).

    Proof that the clip then returns no vertex, so the IoU is 0.0 either
    way. As 1 + M <= 2**500 no product overflows, and each rounding of a d,
    a t or a cut point moves a point or a line by at most ~10 u M
    (u = 2**-53); over the four edges that stays far below rho.
      1. A cut point is a rounded convex combination of the segment's ends
         p and q. Unclamped, it lies on edge j's line up to rounding;
         clamped, it is whichever of p and q edge j keeps.
      2. By induction over the edges, every vertex that edge j outputs lies
         within rho of conv(a), so of a's bounds, and at most
         delta_b + rho outside the line of each of edges 0..j: a kept vertex
         passed edge j's test, a cut point by 1, and the earlier edges'
         half-planes and conv(a) are convex, so cuts between their points
         stay in them.
      3. Take b's corner V that is extreme towards a (its smallest x if gap
         is b's xmin - a's xmax, and so on). The half-planes of V's two
         edges, moved out by delta_b + rho, meet in a wedge that opens away
         from a, with apex within kappa_b (2 delta_b + 2 rho) of V, and no
         point within rho of a's bounds reaches it when
         gap > 2 kappa_b (delta_b + rho) + rho. So edge 3 outputs nothing,
         and the clip returns [].
    (R1) asks for twice that reach, which covers the relative rounding of
    kappa, delta and gap (each below 2**-20, as kappa <= 2**30).
    """
    gap, reach = _gap_and_reach(boxes_a, boxes_b)
    return gap > reach  # the reach is > 0: overlapping bounds are never skipped


def _clipped_iou(a: OrientedBox, b: OrientedBox) -> float:
    """IoU of a and b from the clip of a's CCW corners by b's CCW edges.

    The intersection's area is the shoelace sum about its first vertex, each
    term halved before the sum and the terms summed in np.add.reduce's order
    by `_pairwise_sum` (see `boxes_from_corners` for why that order and the
    halving).
    """
    area_a, area_b = a._area, b._area
    poly = _clip_convex(a._ccw_pts, b._ccw_pts)
    inter = 0.0
    if len(poly) >= 3:
        x0, y0 = poly[0]
        px, py = x0 - x0, y0 - y0
        terms = []
        for x, y in (*poly[1:], poly[0]):
            qx, qy = x - x0, y - y0
            terms.append(0.5 * (px * qy - qx * py))
            px, py = qx, qy
        inter = abs(_pairwise_sum(terms))
        if inter < SLIVER_AREA:
            inter = 0.0
    # min(inter, area_a, area_b), which keeps a NaN inter
    if area_a < inter:
        inter = area_a
    if area_b < inter:
        inter = area_b
    return inter / (area_a + area_b - inter)


def iou_matrix(boxes_a: list[OrientedBox], boxes_b: list[OrientedBox]) -> np.ndarray:
    """Entry [i, j] is the IoU of boxes_a[i] and boxes_b[j], in [0, 1].

    Rule (R1) is applied to the whole matrix at once (`_skip_mask`), so only
    the pairs within reach go through the clip (`_clipped_iou`), once each;
    the others score 0.0, as the clip would. The temporaries are a few
    len(boxes_a) x len(boxes_b) float arrays.
    """
    out = np.zeros((len(boxes_a), len(boxes_b)))
    if out.size:
        rows, cols = np.nonzero(~_skip_mask(boxes_a, boxes_b))
        out[rows, cols] = [_clipped_iou(boxes_a[i], boxes_b[j])
                           for i, j in zip(rows.tolist(), cols.tolist())]
    return out


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two rotated boxes, in [0, 1]: the 1 x 1
    `iou_matrix`."""
    return float(iou_matrix([a], [b])[0, 0])


def _check_iou_thr(iou_thr: float) -> None:
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must lie in (0, 1), got {iou_thr}")


def _envelope_ap(tp_flags: list[bool], n_gt: int) -> float:
    tp = np.cumsum(tp_flags).astype(np.float64)
    fp = np.cumsum([not t for t in tp_flags]).astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / n_gt
    # monotone upper envelope of precision, then step-integrate over recall
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(envelope.tolist(), recall.tolist()):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return ap


def _rank(entry: tuple[str, Detection, list[float]]) -> tuple:
    img, det, _ = entry
    cx, cy = det.box.centroid
    return -det.score, cy, cx, img


def _matched_ap(scored: list[tuple[str, Detection, list[float]]], n_gt: int,
                iou_thr: float) -> float:
    """AP of one class from (image, detection, IoU row) entries, listed by
    image name, then in each image's detection order. A row holds the
    detection's IoU with each of its image's GT boxes of the class, in GT
    order; `n_gt` counts those boxes over all images."""
    if n_gt == 0 or not scored:
        return 0.0
    matched: dict[str, list[bool]] = {}
    tp_flags = []
    for img, _, row in sorted(scored, key=_rank):
        taken = matched.setdefault(img, [False] * len(row))
        best_iou, best_g = 0.0, -1
        for g, iou in enumerate(row):
            if iou > best_iou and not taken[g]:  # strict: equal IoU keeps the lower GT index
                best_iou, best_g = iou, g
        hit = best_g >= 0 and best_iou > iou_thr
        if hit:
            taken[best_g] = True
        tp_flags.append(hit)
    return _envelope_ap(tp_flags, n_gt)


def average_precision_grouped(dets_by_image: dict[str, list[Detection]],
                              gts_by_image: dict[str, list[OrientedBox]],
                              iou_thr: float) -> float:
    """Single-class AP with per-image matching and one global PR curve."""
    _check_iou_thr(iou_thr)
    scored = []
    for img, ds in sorted(dets_by_image.items()):
        ious = iou_matrix([d.box for d in ds], gts_by_image.get(img, [])).tolist()
        scored += [(img, d, row) for d, row in zip(ds, ious)]
    return _matched_ap(scored, sum(len(g) for g in gts_by_image.values()), iou_thr)


def average_precision(dets: list[Detection], gts: list[OrientedBox],
                      iou_thr: float) -> float:
    """Single-class, single-image AP: area under the precision-envelope PR curve."""
    return average_precision_grouped({"": list(dets)}, {"": list(gts)}, iou_thr)


def greedy_point_match(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int, float]]:
    """Greedy bipartite point matching by ascending distance.

    Returns (index into a, index into b, distance) triples; each point is
    used at most once, so min(len(a), len(b)) pairs come back. Distance ties
    resolve by (a index, b index).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2)
    pairs = sorted(
        (float(np.hypot(*(a[i] - b[j]))), i, j)
        for i in range(len(a)) for j in range(len(b)))
    used_a, used_b = set(), set()
    out = []
    for dist, i, j in pairs:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        out.append((i, j, dist))
    return out


def mean_nearest_distance(references: np.ndarray,
                          candidates: np.ndarray) -> float:
    """Mean over reference points of the distance to the nearest candidate.

    One distance per reference; a candidate may serve several references.
    Unlike greedy_point_match this charges for every reference left without
    a nearby candidate, so it measures how well the candidate set covers
    the reference set.
    """
    refs = np.asarray(references, dtype=np.float64).reshape(-1, 2)
    cands = np.asarray(candidates, dtype=np.float64).reshape(-1, 2)
    if not len(refs) or not len(cands):
        raise ValueError("mean_nearest_distance needs non-empty point sets")
    dists = np.linalg.norm(refs[:, None, :] - cands[None, :, :], axis=2)
    return float(dists.min(axis=1).mean())


def mean_ap(per_class: dict[str, float] | dict[int, float]) -> float:
    """Arithmetic mean of per-class APs."""
    if not per_class:
        raise EmptyClasses("mean AP over an empty class map")
    return float(np.mean(list(per_class.values())))


def max_ious(proposals: list[OrientedBox], gts: list[OrientedBox]) -> np.ndarray:
    """Each proposal's best IoU against any GT box; 0 where there is none."""
    return iou_matrix(proposals, gts).max(axis=1, initial=0.0)


def _hit_rates(best: np.ndarray, thresholds) -> list[float]:
    """The share of `best` strictly above each threshold, 0.0 each where
    `best` is empty: every threshold in one comparison. A share is a sum of
    0s and 1s, exact in any order, over len(best), so each equals
    `np.mean(best > t)` bit for bit. The one hit-rate rule of PHR and
    proposal precision."""
    thr = np.asarray(thresholds, dtype=np.float64)
    if not best.size:
        return [0.0] * thr.size
    return (best[:, None] > thr).mean(axis=0).tolist()


def phr_curve(proposals: list[OrientedBox], gts: list[OrientedBox],
              thresholds: list[float]) -> list[tuple[float, float]]:
    """Proposal hit rate: share of proposals with max-IoU strictly above t."""
    if not proposals:
        raise EmptyProposals("PHR of an empty proposal list")
    thr = list(thresholds)
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise ValueError("thresholds must be sorted strictly ascending")
    return list(zip(map(float, thr), _hit_rates(max_ious(proposals, gts), thr)))


def proposal_precision(proposals: list[OrientedBox], gts: list[OrientedBox],
                       iou_thr: float = 0.5) -> float:
    """Share of proposals whose max-IoU against any GT strictly exceeds iou_thr."""
    if not proposals:
        raise EmptyProposals("precision of an empty proposal list")
    return _hit_rates(max_ious(proposals, gts), [iou_thr])[0]


@dataclass
class EvalReport:
    """Aggregated detection-evaluation results."""

    per_class_ap: dict[str, float]
    map50: float
    phr: list[tuple[float, float]] = field(default_factory=list)
    proposal_precision: float = 0.0
    iou_thr: float = 0.5
    class_id_map: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        vals = list(self.per_class_ap.values()) + [self.map50, self.proposal_precision]
        vals += [r for _, r in self.phr]
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError("all APs and rates must lie in [0, 1]")

    def render(self) -> str:
        lines = [
            "# scatterkit evaluation report",
            "# conventions: AP = area under monotone precision envelope "
            "(all-point interpolation);",
            "#   match rule: greedy by score, IoU strictly > threshold, "
            "ties -> lower GT index;",
            "#   IoU: exact convex clipping (collinearity tol 1e-9, "
            "sliver cutoff 1e-12 px^2);",
            "#   class ids: alphabetical rank of class names present in GT.",
            f"iou_threshold = {self.iou_thr:g}",
        ]
        for name in sorted(self.per_class_ap):
            cid = self.class_id_map.get(name, "")
            lines.append(f"ap class={name} id={cid} value={self.per_class_ap[name]:.6f}")
        lines.append(f"map = {self.map50:.6f}")
        lines.append(f"proposal_precision = {self.proposal_precision:.6f}")
        for t, r in self.phr:
            lines.append(f"phr t={_threshold_label(t)} rate={r:.6f}")
        return "\n".join(lines) + "\n"


def _threshold_label(t: float) -> str:
    """t with the fewest decimals, at least 2, that read back as t."""
    return np.format_float_positional(t, unique=True, trim="k", min_digits=2)


def evaluate_detections(dets_by_image: dict[str, list[Detection]],
                        gts_by_image: dict[str, list[tuple[str, OrientedBox]]],
                        class_id_map: dict[str, int], iou_thr: float,
                        phr_thresholds: list[float]) -> EvalReport:
    """Per-class AP, mAP, proposal precision and PHR of one detection run.

    `gts_by_image` holds each image's (class name, box) ground truth, and
    `class_id_map` the id that predictions of each class name carry. Each
    image's IoU matrix, over all its predictions and all its GT boxes, is
    computed once (`iou_matrix`). AP of a class present in the GT matches
    that class's rows against that class's columns (`_matched_ap`). Each
    row's maximum is a prediction's best IoU against any GT box of its
    image; pooled over all predictions, those give proposal precision and
    PHR, which read 0 when there is no prediction.
    """
    _check_iou_thr(iou_thr)
    names = sorted({name for gts in gts_by_image.values() for name, _ in gts})
    n_gt = {name: sum(n == name for gts in gts_by_image.values() for n, _ in gts)
            for name in names}
    scored: dict[str, list] = {name: [] for name in names}
    best = [np.zeros(0)]
    for img, ds in sorted(dets_by_image.items()):
        gts = gts_by_image.get(img, [])
        ious = iou_matrix([d.box for d in ds], [box for _, box in gts])
        best.append(ious.max(axis=1, initial=0.0))
        rows = ious.tolist()
        for name in names:
            cid = class_id_map[name]
            cols = [g for g, (n, _) in enumerate(gts) if n == name]
            scored[name] += [(img, d, [row[g] for g in cols])
                             for d, row in zip(ds, rows) if d.class_id == cid]
    per_class = {name: _matched_ap(scored[name], n_gt[name], iou_thr) for name in names}
    *rates, precision = _hit_rates(np.concatenate(best), [*phr_thresholds, iou_thr])
    return EvalReport(
        per_class_ap=per_class, map50=mean_ap(per_class) if per_class else 0.0,
        phr=list(zip(map(float, phr_thresholds), rates)), proposal_precision=precision,
        iou_thr=iou_thr, class_id_map=dict(class_id_map))
