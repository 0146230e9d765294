"""`gt_scatter_map` against the retired per-keypoint loop: the Gaussian of
the least squared distance to a keypoint equals the pixelwise max of the
keypoints' Gaussians bit for bit, because `exp` is monotone."""

import numpy as np

from scatterkit import supervision
from scatterkit.keypoints import KeypointSet
from scatterkit.supervision import gt_scatter_map

from oracles import gt_scatter_map_max

SIGMA_MIN, SIGMA_MAX = 6e-155, 1e150  # the ends of `_exponent_scale`'s accepted range


def _uniform(rng, h, w, n):
    return np.column_stack([rng.uniform(0, w, n), rng.uniform(0, h, n)])


def _lattice(rng, h, w, n):
    # integer and half-integer points on a coarse grid: many pixels tie
    step = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    xs = np.arange(0.0, w, step)
    ys = np.arange(0.0, h, step)
    return np.column_stack([rng.choice(xs, n), rng.choice(ys, n)])


def _edges(rng, h, w, n):
    # the first and last representable coordinate of each axis, and the corners
    xs = np.array([0.0, np.nextafter(float(w), 0.0), w / 2])
    ys = np.array([0.0, np.nextafter(float(h), 0.0), h / 2])
    return np.column_stack([rng.choice(xs, n), rng.choice(ys, n)])


def _clustered(rng, h, w, n):
    centre = rng.uniform(0, 1, 2) * (w, h)
    pts = centre + rng.normal(0.0, float(rng.choice([0.01, 0.5, 3.0])), (n, 2))
    return np.clip(pts, 0.0, np.nextafter(np.array([w, h], dtype=float), 0.0))


LAYOUTS = (_uniform, _lattice, _edges, _clustered)


def _sigma(rng) -> float:
    u = rng.uniform()
    if u < 0.1:
        return SIGMA_MIN
    if u < 0.2:
        return SIGMA_MAX
    return float(np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(SIGMA_MAX))))


def test_nearest_keypoint_map_equals_the_per_keypoint_max_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(38))
    for case in range(320):
        h, w = (int(v) for v in rng.integers(1, 97, 2))
        n = int(rng.integers(1, 41))
        pts = LAYOUTS[case % len(LAYOUTS)](rng, h, w, n)
        kps = KeypointSet(points=tuple(map(tuple, pts.tolist())))
        sigma = _sigma(rng) if case % 3 else float(rng.uniform(0.3, 6.0))
        got = gt_scatter_map(kps, h, w, sigma=sigma).values
        want = gt_scatter_map_max(kps, h, w, sigma=sigma).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            (case, h, w, n, sigma)


def test_one_exp_per_map(monkeypatch):
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(supervision.np, "exp", counted)
    kps = KeypointSet(points=tuple((float(i), float(i % 5)) for i in range(40)))
    gt_scatter_map(kps, 8, 48, sigma=1.5)
    assert len(calls) == 1
