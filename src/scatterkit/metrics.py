"""Rotated-box IoU, average precision, PHR curves, and proposal precision.

Conventions (also emitted in every eval report):
  - IoU is exact convex-polygon intersection over union, computed by
    Sutherland-Hodgman clipping with 1e-9 collinearity tolerance; slivers
    below 1e-12 px^2 count as zero.
  - Each cut point lies on the clipped segment (its fraction is clamped to
    [0, 1]), and areas are summed about a polygon's first corner.
  - A pair whose bounding rectangles lie further apart than a proven reach
    scores 0.0 without the clip, exactly as the clip would score it (the
    rule and its proof are in `rotated_iou`); no IoU value changes.
  - A detection matches a ground-truth box only with IoU strictly greater
    than the threshold; matching is greedy in score order against the
    highest-IoU unmatched ground truth (ties -> lower GT index).
  - AP is the area under the monotone precision envelope of the full PR
    curve (all-point interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBox, EmptyClasses, EmptyProposals

COLLINEAR_TOL = 1e-9
SLIVER_AREA = 1e-12
# rho = ROUNDING_PER_PX * (1 + M) bounds every rounding error of the clip on
# coordinates up to M in magnitude (each is a few 2**-53 * M).
ROUNDING_PER_PX = 2.0 ** -40
_MIN_SINE = 2.0 ** -30    # flatter corners get kappa = inf: never skipped
_MAX_COORD = 2.0 ** 500   # above this 1 + M the clip's products may overflow


def _signed_area(pts) -> float:
    """Shoelace area of (x, y) float pairs, positive for CCW.

    The terms are taken about the first point: on raw coordinates each would
    carry a rounding error of ~1e-16 x offset**2, which swamps the area of a
    small polygon far from the origin. They are summed by np.add.reduce, the
    reduction np.sum runs: its order on small arrays matches neither `sum`
    nor `math.fsum`, and either would move the last bits of areas and IoUs.
    """
    x0, y0 = pts[0]
    rel = [(x - x0, y - y0) for x, y in pts]
    terms = [px * qy - qx * py for (px, py), (qx, qy) in zip(rel, rel[1:] + rel[:1])]
    return 0.5 * float(np.add.reduce(terms))


def _reach_data(coords: list[float], crosses: list[float], orient: float,
                absmax: float) -> tuple:
    """What `rotated_iou`'s rejection rule reads of one box.

    From the corner floats `coords` (x0, y0, ..., x3, y3) and the convexity
    cross products (`crosses[i]` at corner i + 1, between edges i and
    i + 1), with orient = +1 for CCW corners and -1 for CW ones: the bounds
    (xmin, ymin, xmax, ymax), the largest |coordinate|, 4 kappa and delta.
    The names are those of the proof in `rotated_iou`.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = coords
    c0, c1, c2, c3 = crosses
    hypot = math.hypot
    l0, l1, l2, l3 = hypot(x1 - x0, y1 - y0), hypot(x2 - x1, y2 - y1), \
        hypot(x3 - x2, y3 - y2), hypot(x0 - x3, y0 - y3)
    kappa4 = delta = math.inf
    d0, d1, d2, d3 = l0 * l1, l1 * l2, l2 * l3, l3 * l0
    if d0 > 0.0 and d1 > 0.0 and d2 > 0.0 and d3 > 0.0:
        sine = min(orient * c0 / d0, orient * c1 / d1, orient * c2 / d2, orient * c3 / d3)
        if sine >= _MIN_SINE:  # False for a flat, reflex or NaN corner
            kappa4 = 4.0 / sine
            delta = COLLINEAR_TOL / min(l0, l1, l2, l3)
    return (min(x0, x1, x2, x3), min(y0, y1, y2, y3), max(x0, x1, x2, x3),
            max(y0, y1, y2, y3), absmax, kappa4, delta)


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle stored as 4 (x, y) corners in consistent winding.

    The area and the counter-clockwise (CCW) corner order are computed once,
    here; the CCW corners are also kept as float pairs for `rotated_iou`.
    So is what its exact rejection rule reads: the bounds, the largest
    |coordinate|, delta = COLLINEAR_TOL / shortest edge and kappa = 1 / the
    smallest sine of a corner angle (1 for a rectangle; inf for a flat,
    reflex or non-finite corner).
    """

    corners: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.corners, dtype=np.float64)
        if arr.shape != (4, 2):
            raise DegenerateBox(f"expected 4 corner pairs, got shape {arr.shape}")
        coords = arr.ravel().tolist()
        if not all(map(math.isfinite, coords)):
            raise DegenerateBox("box corners contain NaN/Inf")
        pts = list(zip(coords[0::2], coords[1::2]))
        absmax = max(map(abs, coords))
        if absmax < 1e153:  # each term is below 8 absmax**2: no overflow
            signed = _signed_area(pts)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                signed = _signed_area(pts)
        if not math.isfinite(signed):
            raise DegenerateBox("box area is not finite")
        if abs(signed) <= SLIVER_AREA:
            raise DegenerateBox("box has (near-)zero area")
        # Simple + convex <=> all consecutive-edge cross products share a sign.
        crosses = []
        for i in range(4):
            (ax, ay), (bx, by), (cx, cy) = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        if any(c > COLLINEAR_TOL for c in crosses) and \
                any(c < -COLLINEAR_TOL for c in crosses):
            raise DegenerateBox("corners do not form a convex simple quadrilateral")
        arr.setflags(write=False)
        object.__setattr__(self, "corners", arr)
        object.__setattr__(self, "_area", abs(signed))
        object.__setattr__(self, "_ccw", arr if signed > 0 else arr[::-1])
        object.__setattr__(self, "_ccw_pts", tuple(pts) if signed > 0 else tuple(pts[::-1]))
        object.__setattr__(self, "_reach", _reach_data(coords, crosses,
                                                        1.0 if signed > 0 else -1.0, absmax))

    @property
    def area(self) -> float:
        return self._area

    @property
    def centroid(self) -> tuple[float, float]:
        c = self.corners.mean(axis=0)
        return float(c[0]), float(c[1])

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


def _cut(p: tuple[float, float], q: tuple[float, float],
         dp: float, dq: float) -> tuple[float, float]:
    """Where segment p-q crosses a clip edge's line, from the signed
    distances dp at p and dq at q. The cut fraction t is clamped to [0, 1],
    so the point stays on the segment where the tolerance band gives dp and
    dq the same sign."""
    t = dp / (dp - dq)
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])


def _clip_convex(subject, clip) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip a convex CCW polygon by a convex CCW polygon.

    Both polygons and the result are sequences of (x, y) float pairs.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        pts = output
        m = len(pts)
        output = []
        # signed distance from the clip edge; >= -tol counts as inside
        d = [ex * (py - ay) - ey * (px - ax) for px, py in pts]
        for j, p in enumerate(pts):
            dp, dq = d[j], d[(j + 1) % m]
            if dp >= -COLLINEAR_TOL:
                output.append(p)
                if dq < -COLLINEAR_TOL:
                    output.append(_cut(p, pts[(j + 1) % m], dp, dq))
            elif dq >= -COLLINEAR_TOL:
                output.append(_cut(p, pts[(j + 1) % m], dp, dq))
    return output


def clip_reach(a: OrientedBox, b: OrientedBox) -> float:
    """How far apart the bounds of a and b must lie for `rotated_iou(a, b)`
    to skip the clip: 4 kappa_b (delta_b + rho) where 1 + M <= 2**500,
    else inf (rule (R1) of `rotated_iou`)."""
    am = a._reach[4]
    _, _, _, _, bm, kappa4, delta = b._reach
    m = 1.0 + (am if am > bm else bm)
    if m > _MAX_COORD:
        return math.inf
    return kappa4 * (delta + ROUNDING_PER_PX * m)


def _beyond_reach(a: OrientedBox, b: OrientedBox) -> bool:
    """The rejection rule of `rotated_iou`: True only where the clip of a
    by b provably returns no vertex."""
    ax0, ay0, ax1, ay1, _, _, _ = a._reach
    bx0, by0, bx1, by1, _, _, _ = b._reach
    gap = max(bx0 - ax1, ax0 - bx1, by0 - ay1, ay0 - by1)
    return gap > 0.0 and gap > clip_reach(a, b)  # overlapping bounds: no reach needed


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two rotated boxes, in [0, 1].

    The intersection is a's CCW corners clipped by b's CCW edges 0..3 in
    turn (`_clip_convex`). Edge j keeps a point p iff its
    d_j(p) = cross(e_j, p - A_j) >= -tol (tol = COLLINEAR_TOL): p lies at
    most tol / |e_j| <= delta_b outside the edge's line. A segment from a
    kept to a dropped point, or back, is cut at t = d_p / (d_p - d_q),
    clamped to [0, 1].

    Rejection rule. Let gap be the largest of the four separations of the
    bounds of a and b, M the largest |coordinate| of either box and
    rho = 2**-40 (1 + M). The clip is skipped, and 0.0 returned, when
      (R1) gap > 4 kappa_b (delta_b + rho) and 1 + M <= 2**500
    (`clip_reach`).

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
    area_a, area_b = a.area, b.area
    if area_a <= SLIVER_AREA or area_b <= SLIVER_AREA:
        raise DegenerateBox("IoU of a zero-area box is undefined")
    if _beyond_reach(a, b):
        return 0.0
    inter_poly = _clip_convex(a._ccw_pts, b._ccw_pts)
    inter = abs(_signed_area(inter_poly)) if len(inter_poly) >= 3 else 0.0
    if inter < SLIVER_AREA:
        inter = 0.0
    inter = min(inter, area_a, area_b)
    union = area_a + area_b - inter
    return float(inter / union)


def _envelope_ap(tp_flags: list[bool], n_gt: int) -> float:
    tp = np.cumsum(tp_flags).astype(np.float64)
    fp = np.cumsum([not t for t in tp_flags]).astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / n_gt
    # monotone upper envelope of precision, then step-integrate over recall
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def average_precision_grouped(dets_by_image: dict[str, list[Detection]],
                              gts_by_image: dict[str, list[OrientedBox]],
                              iou_thr: float) -> float:
    """Single-class AP with per-image matching and one global PR curve."""
    if not 0.0 < iou_thr < 1.0:
        raise ValueError(f"iou_thr must lie in (0, 1), got {iou_thr}")
    n_gt = sum(len(g) for g in gts_by_image.values())
    flat = [(img, d) for img, ds in sorted(dets_by_image.items()) for d in ds]
    if n_gt == 0 or not flat:
        return 0.0

    def rank(entry: tuple[str, Detection]) -> tuple:
        img, det = entry
        cx, cy = det.box.centroid
        return -det.score, cy, cx, img

    flat.sort(key=rank)
    matched = {img: [False] * len(g) for img, g in gts_by_image.items()}
    tp_flags = []
    for img, det in flat:
        gts = gts_by_image.get(img, [])
        best_iou, best_g = 0.0, -1
        for g, gt in enumerate(gts):
            if matched[img][g]:
                continue
            iou = rotated_iou(det.box, gt)
            if iou > best_iou:  # strict: equal IoU keeps the lower GT index
                best_iou, best_g = iou, g
        if best_g >= 0 and best_iou > iou_thr:
            matched[img][best_g] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return _envelope_ap(tp_flags, n_gt)


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
    out = np.zeros(len(proposals))
    for i, p in enumerate(proposals):
        for g in gts:
            iou = rotated_iou(p, g)
            if iou > out[i]:
                out[i] = iou
    return out


def phr_curve(proposals: list[OrientedBox], gts: list[OrientedBox],
              thresholds: list[float]) -> list[tuple[float, float]]:
    """Proposal hit rate: share of proposals with max-IoU strictly above t."""
    if not proposals:
        raise EmptyProposals("PHR of an empty proposal list")
    thr = list(thresholds)
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise ValueError("thresholds must be sorted strictly ascending")
    best = max_ious(proposals, gts)
    return [(float(t), float(np.mean(best > t))) for t in thr]


def proposal_precision(proposals: list[OrientedBox], gts: list[OrientedBox],
                       iou_thr: float = 0.5) -> float:
    """Share of proposals whose max-IoU against any GT strictly exceeds iou_thr."""
    if not proposals:
        raise EmptyProposals("precision of an empty proposal list")
    best = max_ious(proposals, gts)
    return float(np.mean(best > iou_thr))


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
            lines.append(f"phr t={t:.2f} rate={r:.6f}")
        return "\n".join(lines) + "\n"
