"""Keypoint clustering, per-instance seeding, and the DoG baseline."""

import numpy as np
import pytest

from scatterkit import keypoints
from scatterkit.ascmodel import FrequencyGrid, Scatterer, synth_image
from scatterkit.annotio import fit_regions, skaa_keypoints
from scatterkit.errors import EmptyInput, NoCandidates
from scatterkit.keypoints import (DogParams, KeypointSet, _pairwise_sum,
                                  cluster_keypoints, dog_candidates,
                                  dog_keypoints, dog_response, instance_seed,
                                  to_global)
from scatterkit.raster import AmplitudeRaster
from scatterkit.spectral import taylor_window_2d

from oracles import (cluster_keypoints_loop, cluster_keypoints_numpy,
                     kmeans_pp_init_choice, kmeans_pp_init_numpy)

# sha256("0:chip_00000:0") as an integer; pins the seed derivation forever
PINNED_SEED = 111036133852682233449187380584068176767193868072678492542894896991942400593282


def test_instance_seed_is_stable_and_distinct():
    assert instance_seed(0, "chip_00000", 0) == PINNED_SEED
    assert instance_seed(0, "chip_00000", 0) == instance_seed(0, "chip_00000", 0)
    seeds = {instance_seed(m, i, n)
             for m in (0, 1) for i in ("a", "b") for n in (0, 1)}
    assert len(seeds) == 8


def test_keypoint_set_validation_and_translation():
    kps = KeypointSet(points=((1.0, 2.0), (3.0, 4.0)))
    np.testing.assert_array_equal(kps.as_array(), [[1, 2], [3, 4]])
    moved = kps.translated(10.0, -1.0)
    assert moved.points == ((11.0, 1.0), (13.0, 3.0))
    assert (kps.k, moved.k) == (2, 2)
    with pytest.raises(ValueError):
        KeypointSet(points=())
    with pytest.raises(ValueError):
        KeypointSet(points=((np.nan, 0.0),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("coord", [0, 1], ids=["x", "y"])
def test_keypoint_set_rejects_non_finite_coordinates(bad, coord):
    pt = [5.0, 6.0]
    pt[coord] = bad
    for points in ((tuple(pt),), ((1.0, 2.0), tuple(pt), (3.0, 4.0))):
        with pytest.raises(ValueError, match="keypoints must be finite"):
            KeypointSet(points=points)
    KeypointSet(points=((1e308, -1e308), (0.0, 5e-324)))  # finite extremes pass


def test_cluster_exact_count_is_identity_sorted_row_major():
    pts = [(5.0, 1.0), (0.0, 3.0), (9.0, 0.0), (2.0, 3.0)]
    kps = cluster_keypoints(pts, k=4, rng_seed=0)
    assert kps.points == ((9.0, 0.0), (5.0, 1.0), (0.0, 3.0), (2.0, 3.0))


def test_cluster_tight_pairs_reduce_to_midpoints():
    centers = [(float(10 + 50 * (i % 3)), float(10 + 50 * (i // 3)))
               for i in range(9)]
    pts = []
    for cx, cy in centers:
        pts += [(cx - 0.1, cy), (cx + 0.1, cy)]
    expected = sorted(centers, key=lambda p: (p[1], p[0]))
    for seed in range(20):
        kps = cluster_keypoints(pts, k=9, rng_seed=seed)
        np.testing.assert_allclose(kps.as_array(), expected, rtol=0, atol=1e-9)


def test_cluster_replicates_when_short():
    pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
    kps = cluster_keypoints(pts, k=9, rng_seed=0)
    assert kps.k == 9 and len(kps.points) == 9
    assert set(kps.points) == set(pts)  # every input survives replication


def test_cluster_rejects_empty_and_bad_k():
    with pytest.raises(EmptyInput):
        cluster_keypoints([], k=3)
    with pytest.raises(ValueError):
        cluster_keypoints([(0.0, 0.0)], k=0)


def _kmeans_case(rng: np.random.Generator, case: int) -> np.ndarray:
    """1-39 points, by case % 10: uniform (0-3), rounded to integers (4-6),
    all coincident (7-8), or in two coincident halves (9), whose empty
    clusters meet the revive rule with every point on a centre."""
    n = int(rng.integers(1, 40))
    kind = case % 10
    if kind <= 3:
        return rng.uniform(0.0, 128.0, (n, 2))
    if kind <= 6:
        return np.round(rng.uniform(0.0, rng.choice([3.0, 12.0, 128.0]), (n, 2)))
    if kind <= 8:
        return np.tile(rng.uniform(0.0, 128.0, 2), (n, 1))
    halves = rng.uniform(0.0, 128.0, (2, 2))
    return halves[np.arange(n) % 2]


def test_cluster_matches_per_cluster_loop_to_the_bit():
    # points rounded to a 16 px lattice coincide, and with fewer points than
    # k they are replicated, so k-means++ picks equal centres and clusters
    # run empty; about one case in seven revives one
    rng = np.random.Generator(np.random.PCG64(51))
    for case in range(2000):
        pts = rng.uniform(0.0, 128.0, (int(rng.integers(1, 40)), 2))
        if case % 2:
            pts = np.round(pts / 16.0) * 16.0
        pts = [tuple(p) for p in pts]
        k, seed = int(rng.integers(1, 12)), int(rng.integers(1 << 62))
        assert np.array(cluster_keypoints(pts, k, seed).points).tobytes() == \
            np.array(cluster_keypoints_loop(pts, k, seed).points).tobytes()
    # integer duplicates, all-coincident points and two coincident halves
    rng = np.random.Generator(np.random.PCG64(53))
    for case in range(1000):
        pts = [tuple(p) for p in _kmeans_case(rng, case)]
        k, seed = int(rng.integers(1, 12)), int(rng.integers(1 << 62))
        assert np.array(cluster_keypoints(pts, k, seed).points).tobytes() == \
            np.array(cluster_keypoints_loop(pts, k, seed).points).tobytes(), case


def test_cluster_converges_fast_on_two_locations(monkeypatch):
    # the centroid of n equal points can be an ulp off the point; reviving an
    # empty cluster at a point that already sits on a centre made the two
    # groups swap slots on every iteration, up to KMEANS_MAX_ITER
    iterations = []
    lloyd_step = keypoints._lloyd_step

    def counting_step(*args):
        iterations[-1] += 1
        return lloyd_step(*args)

    monkeypatch.setattr(keypoints, "_lloyd_step", counting_step)
    rng = np.random.Generator(np.random.PCG64(54))
    for case in range(300):
        halves = rng.uniform(0.0, 128.0, (2, 2))
        pts = [tuple(p) for p in halves[np.arange(int(rng.integers(2, 40))) % 2]]
        k, seed = int(rng.integers(3, 12)), int(rng.integers(1 << 62))
        iterations.append(0)
        kps = cluster_keypoints(pts, k, seed)
        assert {tuple(p) for p in np.round(kps.as_array(), 9)} == \
            {tuple(p) for p in np.round(halves, 9)}, case
    assert max(iterations) <= 3, max(iterations)


def test_lloyd_step_revives_empty_clusters_at_the_first_worst_point():
    # both points fit the first centre 2 px off; the second runs empty
    step = keypoints._lloyd_step
    assert step([(0.0, 0.0), (4.0, 0.0)], [(2.0, 0.0), (100.0, 0.0)]) == \
        [(2.0, 0.0), (0.0, 0.0)]
    # every point sits on a centre: the empty one keeps its place
    assert step([(1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0), (1.0, 1.0)]) == \
        [(1.0, 1.0), (1.0, 1.0)]
    # equal distances go to the first centre
    assert step([(0.0, 0.0), (2.0, 0.0)], [(1.0, 0.0), (1.0, 0.0), (9.0, 0.0)]) == \
        [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)]


def test_kmeans_pp_init_matches_the_choice_oracle_to_the_bit():
    # k > n in about half the cases; the coincident cases take the
    # total <= 0 branch
    rng = np.random.Generator(np.random.PCG64(52))
    zero_total = k_over_n = 0
    for case in range(5000):
        pts = _kmeans_case(rng, case)
        k, seed = int(rng.integers(1, 12)), int(rng.integers(1 << 62))
        got = kmeans_pp_init_numpy(pts, k, np.random.Generator(np.random.PCG64(seed)))
        ref = kmeans_pp_init_choice(pts, k, np.random.Generator(np.random.PCG64(seed)))
        assert got.tobytes() == ref.tobytes(), case
        zero_total += k > 1 and bool((pts == pts[0]).all())
        k_over_n += k > len(pts)
    assert zero_total > 800 and k_over_n > 500


@pytest.mark.parametrize("pts", [[(0.0, 0.0), (1e200, 0.0), (3.0, 4.0)],
                                 [(0.0, 0.0), (np.nan, 1.0), (3.0, 4.0)]])
def test_kmeans_pp_init_rejects_weights_generator_choice_rejects(pts):
    for seed in range(8):  # every first centre, whichever is drawn
        with pytest.raises(ValueError, match="finite sum"):
            cluster_keypoints(pts, 3, seed)
    pts = np.array(pts)
    for init in (kmeans_pp_init_numpy, kmeans_pp_init_choice):
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            for seed in range(8):
                init(pts, 3, np.random.Generator(np.random.PCG64(seed)))


def test_pairwise_sum_is_numpys_sum_to_the_bit():
    # up to 7 values, 8 partial sums up to 128, halves above that
    rng = np.random.Generator(np.random.PCG64(55))
    for n in [*range(1, 300), 511, 1000, 1025]:
        vals = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 6, n)
        assert _pairwise_sum(vals.tolist()) == float(np.add.reduce(vals)), n
    assert _pairwise_sum([1e308, 1e308]) == np.inf


def _assert_cluster_matches_oracles(pts, k: int, seed: int, case) -> None:
    got = np.array(cluster_keypoints(pts, k, seed).points).tobytes()
    assert got == np.array(cluster_keypoints_numpy(pts, k, seed).points).tobytes(), case
    assert got == np.array(cluster_keypoints_loop(pts, k, seed).points).tobytes(), case


def test_cluster_matches_the_numpy_oracle_to_the_bit():
    rng = np.random.Generator(np.random.PCG64(56))
    # 1 to 300 points, so the weight totals take every branch of the
    # pairwise sum; k above n in the first cases
    for n in range(1, 301):
        kind = n % 3
        pts = rng.uniform(0.0, 256.0, (n, 2))
        if kind == 1:  # a 4 px lattice: coincident points and equal distances
            pts = np.round(pts / 4.0) * 4.0
        elif kind == 2:  # a few locations, each repeated
            pts = rng.uniform(0.0, 256.0, (3, 2))[rng.integers(0, 3, n)]
        k = int(rng.integers(1, 12)) if n > 12 else int(rng.integers(n, 13))
        _assert_cluster_matches_oracles([tuple(p) for p in pts], k,
                                        int(rng.integers(1 << 62)), n)
    # DoG-size inputs: 30 candidates on the pixel lattice, clustered to 9
    for case in range(300):
        pts = np.floor(rng.uniform(0.0, rng.choice([16.0, 64.0, 128.0]), (30, 2)))
        _assert_cluster_matches_oracles([tuple(p) for p in pts], 9,
                                        int(rng.integers(1 << 62)), case)
    # every point coincident, and two coincident halves, with n < k too
    rng = np.random.Generator(np.random.PCG64(57))
    for case in range(500):
        pts = _kmeans_case(rng, 7 + case % 3)
        _assert_cluster_matches_oracles([tuple(p) for p in pts], int(rng.integers(1, 12)),
                                        int(rng.integers(1 << 62)), case)


def test_cluster_determinism_and_bounding_box():
    rng = np.random.Generator(np.random.PCG64(50))
    for trial in range(10):
        pts = [tuple(map(float, rng.uniform(0, 100, 2))) for _ in range(25)]
        a = cluster_keypoints(pts, k=6, rng_seed=trial)
        b = cluster_keypoints(pts, k=6, rng_seed=trial)
        assert a.points == b.points
        arr = a.as_array()
        raw = np.array(pts)
        assert np.all(arr.min(axis=0) >= raw.min(axis=0) - 1e-9)
        assert np.all(arr.max(axis=0) <= raw.max(axis=0) + 1e-9)
        ys = arr[:, 1]
        assert np.all(np.diff(ys) >= 0)  # row-major output order


def naive_blur3x3(img, sigma):
    ij = np.arange(-1, 2, dtype=np.float64)
    g = np.exp(-(ij[:, None] ** 2 + ij[None, :] ** 2) / (2 * sigma * sigma))
    g /= g.sum()
    h, w = img.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    acc += g[dy + 1, dx + 1] * img[yy, xx]
            out[y, x] = acc
    return out


def test_dog_response_matches_naive_convolution():
    rng = np.random.Generator(np.random.PCG64(51))
    vals = rng.random((12, 14))
    r = AmplitudeRaster(vals)
    params = DogParams()
    got = dog_response(r, params)
    lo, hi = vals.min(), vals.max()
    norm = (vals - lo) * 255.0 / (hi - lo)
    expect = naive_blur3x3(norm, params.sigma2) - naive_blur3x3(norm, params.sigma1)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_dog_candidates_match_naive_ranking():
    rng = np.random.Generator(np.random.PCG64(52))
    vals = rng.random((16, 16))
    r = AmplitudeRaster(vals)
    params = DogParams(threshold=0.5, top_n=12)
    got = dog_candidates(r, params)
    mag = np.abs(dog_response(r, params)).ravel()
    idx = [int(q) for q in np.flatnonzero(mag > params.threshold)]
    idx.sort(key=lambda q: (-mag[q], q))
    expect = [(float(q % 16), float(q // 16)) for q in idx[:12]]
    assert got == expect


def test_dog_constant_raster_has_no_candidates():
    r = AmplitudeRaster(np.full((8, 8), 3.0))
    with pytest.raises(NoCandidates):
        dog_response(r)
    with pytest.raises(NoCandidates):
        dog_keypoints(r, k=1)


def test_dog_threshold_is_strict():
    rng = np.random.Generator(np.random.PCG64(53))
    r = AmplitudeRaster(rng.random((10, 10)))
    peak = float(np.abs(dog_response(r)).max())
    with pytest.raises(NoCandidates):
        dog_candidates(r, DogParams(threshold=peak))
    assert dog_candidates(r, DogParams(threshold=peak * 0.999))


def test_dog_impulse_keypoint_lands_near_impulse():
    vals = np.zeros((16, 16))
    vals[6, 9] = 1.0
    kps = dog_keypoints(AmplitudeRaster(vals), k=1)
    (x, y), = kps.points
    assert np.hypot(x - 9, y - 6) <= 2.0


def test_dog_is_affine_invariant():
    rng = np.random.Generator(np.random.PCG64(54))
    vals = rng.random((12, 12))
    a = AmplitudeRaster(vals)
    b = AmplitudeRaster(3.7 * vals + 2.0)
    np.testing.assert_allclose(dog_response(a), dog_response(b), rtol=0, atol=1e-9)
    assert dog_candidates(a, DogParams(threshold=1.0)) == \
        dog_candidates(b, DogParams(threshold=1.0))


def test_dog_keypoints_requires_enough_candidates():
    with pytest.raises(ValueError):
        dog_keypoints(AmplitudeRaster(np.ones((4, 4))), DogParams(top_n=3), k=5)


def test_to_global_translation_round_trip():
    kps = KeypointSet(points=((1.0, 2.0), (3.5, 4.5)))
    shifted = to_global(kps, (10.0, 20.0))
    assert shifted.points == ((11.0, 22.0), (13.5, 24.5))
    back = shifted.translated(-10.0, -20.0)
    assert back.points == kps.points


def test_fit_regions_recovers_separated_truths():
    grid = FrequencyGrid(48, 48)
    window = taylor_window_2d(48, 48)
    truths = [Scatterer(10.0, 10.0, 1.0), Scatterer(35.0, 12.0, 0.9),
              Scatterer(12.0, 36.0, 0.8), Scatterer(36.0, 38.0, 0.7)]
    fits = fit_regions(synth_image(truths, grid, window), window)
    assert len(fits) >= 4
    for truth, fit in zip(truths, fits):
        assert np.hypot(fit.x - truth.x, fit.y - truth.y) <= 1.0
    amps = [f.amplitude for f in fits[:4]]
    assert amps == sorted(amps, reverse=True)


def test_skaa_keypoints_deterministic_set():
    grid = FrequencyGrid(48, 48)
    window = taylor_window_2d(48, 48)
    chip = synth_image([Scatterer(10.0, 10.0, 1.0), Scatterer(35.0, 12.0, 0.9),
                        Scatterer(12.0, 36.0, 0.8)], grid, window)
    a = skaa_keypoints(chip, window, k=3, rng_seed=7)
    b = skaa_keypoints(chip, window, k=3, rng_seed=7)
    assert a.points == b.points
    assert a.k == 3
