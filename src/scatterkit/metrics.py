"""Rotated-box IoU, average precision, PHR curves, and proposal precision.

Conventions (also emitted in every eval report):
  - IoU is exact convex-polygon intersection over union, computed by
    Sutherland-Hodgman clipping with 1e-9 collinearity tolerance; slivers
    below 1e-12 px^2 count as zero.
  - A detection matches a ground-truth box only with IoU strictly greater
    than the threshold; matching is greedy in score order against the
    highest-IoU unmatched ground truth (ties -> lower GT index).
  - AP is the area under the monotone precision envelope of the full PR
    curve (all-point interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBox, EmptyClasses, EmptyProposals

COLLINEAR_TOL = 1e-9
SLIVER_AREA = 1e-12


def _signed_area(pts) -> float:
    """Shoelace area of (x, y) float pairs, positive for CCW.

    The terms stay summed by np.sum: its reduction order on small arrays
    matches neither `sum` nor `math.fsum`, and either would move the last
    bits of areas and IoUs.
    """
    terms = [px * qy - qx * py for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1])]
    return 0.5 * float(np.sum(terms))


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle stored as 4 (x, y) corners in consistent winding.

    The area and the counter-clockwise (CCW) corner order are computed once,
    here; the CCW corners are also kept as float pairs for `rotated_iou`.
    """

    corners: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.corners, dtype=np.float64)
        if arr.shape != (4, 2):
            raise DegenerateBox(f"expected 4 corner pairs, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DegenerateBox("box corners contain NaN/Inf")
        pts = [tuple(p) for p in arr.tolist()]
        signed = _signed_area(pts)
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


def _cut(p: tuple[float, float], q: tuple[float, float], t: float) -> tuple[float, float]:
    """The point a fraction t of the way from p to q."""
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
                    output.append(_cut(p, pts[(j + 1) % m], dp / (dp - dq)))
            elif dq >= -COLLINEAR_TOL:
                output.append(_cut(p, pts[(j + 1) % m], dp / (dp - dq)))
    return output


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection-over-union of two rotated boxes, in [0, 1]."""
    area_a, area_b = a.area, b.area
    if area_a <= SLIVER_AREA or area_b <= SLIVER_AREA:
        raise DegenerateBox("IoU of a zero-area box is undefined")
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
