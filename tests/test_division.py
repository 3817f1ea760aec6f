"""Ball division: the split step, the quality rule, and the full loop."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from gbcluster.core import Dataset, fit_ball, fit_segments, segment_sums, segments
from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate
from gbcluster.division import (DivisionConfig, DivisionTrace, _partition, detect_oversized,
                                generate_balls, should_split, split_once)


def test_split_once_collinear_hand_trace():
    # center x=5; seeds are x=0 (tie-break) and x=10; initial centers 2.5/7.5
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 0.0]])
    a, b = split_once(ds, fit_ball(ds, range(4)))
    assert a.members.tolist() == [0, 1]
    assert np.allclose(a.center, [0.5, 0.0]) and a.radius == 0.5
    assert b.members.tolist() == [2, 3]
    assert np.allclose(b.center, [9.5, 0.0]) and b.radius == 0.5


def test_split_once_two_points_gives_singletons():
    ds = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
    a, b = split_once(ds, fit_ball(ds, [0, 1]))
    assert a.size == b.size == 1
    assert a.radius == b.radius == 0.0


def test_split_once_coincident_points_fails():
    ds = Dataset(points=[[1.0, 1.0]] * 4)
    assert split_once(ds, fit_ball(ds, range(4))) is None


def test_split_once_needs_two_members():
    ds = Dataset(points=[[0.0, 0.0]])
    with pytest.raises(ValueError):
        split_once(ds, fit_ball(ds, [0]))


@pytest.mark.parametrize("parent, child_a, child_b, expected", [
    (0.326, 0.2, 0.1, True),   # both strictly better
    (0.5, 0.5, 0.1, False),    # non-strict improvement on one side
    (0.4, 0.0, 0.0, True),     # singleton children
    (0.0, 0.0, 0.0, False),
])
def test_should_split(parent, child_a, child_b, expected):
    assert should_split(parent, child_a, child_b) is expected
    assert should_split(np.array([parent]), np.array([child_a]),
                        np.array([child_b])).tolist() == [expected]


def test_detect_oversized():
    # mean 3.25, median 1 -> threshold 6.5
    assert detect_oversized([1, 1, 1, 10]).tolist() == [3]
    # mean 4/3, median 1 -> threshold 8/3
    assert detect_oversized([1, 1, 2]).tolist() == []
    assert detect_oversized([2, 2, 2]).tolist() == []
    # even count: median is the average of the middle two (2.5 here)
    assert detect_oversized([1, 2, 3, 10]).tolist() == [3]
    with pytest.raises(ValueError):
        detect_oversized([])


def test_generate_balls_identical_points():
    ds = Dataset(points=[[2.0, 2.0]] * 50)
    bs = generate_balls(ds)
    assert len(bs) == 1
    assert bs.balls[0].radius == 0.0
    assert not bs.noise_ball_flags.any()  # 50 members, not a singleton


def test_generate_balls_single_point_is_noise_ball():
    bs = generate_balls(Dataset(points=[[0.0, 0.0]]))
    assert len(bs) == 1 and bs.noise_ball_flags.tolist() == [True]


def test_generate_balls_partitions_dataset():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    bs = generate_balls(ds)
    seen = np.concatenate([b.members for b in bs.balls])
    assert np.array_equal(np.sort(seen), np.arange(len(ds)))


def test_generate_balls_separated_blobs_are_pure():
    from gbcluster.data import GeneratorSpec
    spec = GeneratorSpec(family="blobs", n=400, seed=4,
                         centers=((0.0, 0.0), (20.0, 0.0)), scales=(1.0, 1.0))
    ds = generate(spec)
    bs = generate_balls(ds)
    for ball in bs.balls:
        assert np.unique(ds.labels[ball.members]).size == 1


def test_generate_balls_moons_granularity_and_radius_rule():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    trace = DivisionTrace()
    bs = generate_balls(ds, trace=trace)
    m = len(bs)
    assert 10 <= m <= len(ds) // 10
    assert detect_oversized(bs.radii).size == 0
    assert not trace.round_cap_hit
    assert trace.stop_reason == "converged"


def test_accepted_splits_strictly_improve():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    trace = DivisionTrace()
    generate_balls(ds, trace=trace)
    assert trace.accepted_splits
    for parent_ad, child_a_ad, child_b_ad in trace.accepted_splits:
        assert child_a_ad < parent_ad
        assert child_b_ad < parent_ad


def test_partition_holds_after_every_round():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 120))
        ds = Dataset(points=rng.normal(0, 1, size=(n, 2)))
        trace = DivisionTrace(capture_partitions=True)
        generate_balls(ds, trace=trace)
        for snapshot in trace.partitions:
            seen = np.concatenate(snapshot)
            assert np.array_equal(np.sort(seen), np.arange(n))


def test_generate_balls_deterministic():
    ds = generate(BUNDLED_DATASETS["blobs5"])
    b1 = generate_balls(ds)
    b2 = generate_balls(ds)
    assert len(b1) == len(b2)
    for x, y in zip(b1.balls, b2.balls):
        assert np.array_equal(x.members, y.members)
        assert np.array_equal(x.center, y.center)
        assert x.radius == y.radius


def test_round_cap_warns():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    # premise: this dataset needs at least two refinement rounds
    full = DivisionTrace()
    generate_balls(ds, trace=full)
    assert sum(r.phase == "refine" for r in full.rounds) >= 2
    trace = DivisionTrace()
    with pytest.warns(RuntimeWarning):
        generate_balls(ds, DivisionConfig(max_refinement_rounds=1), trace=trace)
    assert trace.round_cap_hit
    assert trace.stop_reason == "round_cap"


def test_failed_split_stops_refinement():
    # The two far points are 2 apart, but at 1e16 both seeds' midpoints round
    # to the same value, so the split puts every member on one side.
    pts = np.concatenate([np.linspace(0, 1, 30), [1e16, 1e16 + 2]])[:, None]
    trace = DivisionTrace()
    bs = generate_balls(Dataset(points=pts), trace=trace)
    assert trace.stop_reason == "split_failed"
    assert not trace.round_cap_hit
    assert detect_oversized(bs.radii).tolist() == [2]
    assert bs.balls[2].members.tolist() == [30, 31]
    assert trace.rounds[-1].phase == "refine" and trace.rounds[-1].split_count == 0


def test_division_config_validation():
    with pytest.raises(ValueError):
        DivisionConfig(max_refinement_rounds=0)
    with pytest.raises(ValueError):
        DivisionConfig(min_split_size=1)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _blob_points(n, dim):
    """Five sigma-0.5 blobs around the blobs10k centres, with dim - 2 more
    centre coordinates drawn uniformly from [-3, 9] (the benchmark's sets)."""
    centers = np.asarray(BUNDLED_DATASETS["blobs10k"].centers, dtype=np.float64)
    extra = np.random.default_rng(1).uniform(-3.0, 9.0, size=(len(centers), dim - 2))
    centers = tuple(tuple(float(v) for v in c) for c in np.hstack([centers, extra]))
    return generate(GeneratorSpec(family="blobs", n=n, seed=1, scales=0.5, centers=centers))


_EDGE_INPUTS = {
    "n=1": np.zeros((1, 2)),
    "identical": np.ones((50, 2)),
    "1-d": np.linspace(0, 1, 300)[:, None],
    "d=32": np.random.default_rng(0).normal(size=(500, 32)),
    "blobs-8d-5k": _blob_points(5_000, 8).points,
}

# sha256 of (sizes and members as int64, centers, radii, sum_radius as float64)
# of the balls in generate_balls' order.  Computed before the round-batched
# division replaced the loop that fitted and split one ball at a time; the
# 8-d set's before division moved to coordinate-major arrays.
GOLDEN_BALLS = {
    "blobs-8d-5k": ("327cab28eb100a3251cabb766f5c660a2ba690e84bcfcbabef4f14a89b93a5a7",
                    "e2040f54b7fa476e7a102831c93d2ad2864aaf20df2113176b5b47963ad97f79",
                    "7c3652ba7c3f63a814f3a192266b97c82149a2067ab1e8212fb764b69530908c",
                    "a5d7bca2f9741cda6e223cce87f6480061a61aa0030a18e2fe40f8f7f25754f3"),
    "1-d": ("5fcb73c9588f33e2ce0eed3994b3edcea6b28abf04ba8d09ed3bd4a8b07bd9de",
            "c68949e7393b68fd73ea740397c79deae844376356fab99c67cd2a88f6031f5b",
            "92a9e0c8b444e9c522ee3f3204cf871c6f8d1308c072e188f64ec1ce084e5fe6",
            "9ee494a9d365e1b8306738025425a34ed1367738239fe3e6f18f7fc15f149145"),
    "blobs10k": ("4abd84ee73561cb15473cd8d81ac4aef0b1c95120a6039405b67378a235b1843",
                 "99e76b6effb0978974b2dc9141230ba1193c23449f628c27cb36ccf6dd9af6b6",
                 "3f9e99b986eba3d92f9b77a71171541a26cd28f2771031fec0539c08ab6e203b",
                 "c9158b0c685eb9b5a5d5761620b9425ab7b30810cff696388833060a06130923"),
    "blobs5": ("887d2f2184d6fb896c96e66c8a0646a35f12537ba0d3b886141c28a36fd8f9c0",
               "e294fbcbadb509ba65afb66ffd12f3d3b0f3fb708bf09cd79a6ce7dbff976908",
               "a8097b8b3de8e4b205314901a86903d648421e0809f6835a1896649b96fc628a",
               "db7c7369be8c3bc52d2a8fcefcb58cc193a15935e92caa09a6fabe70d22aefe1"),
    "circles3": ("143bce2d394a40fb532fafce1ebd0491d3ddc2d8b56254af52617a1990824271",
                 "3e6520024c50815f2b6c8b04c76a2b7918b7b0b99c3f4a7077da935d0ca4df18",
                 "edc571c64edf78c352060603e91eeadee41349c31de0eab6dfb7e4c47e2cdaa8",
                 "ce170b64ec8a3f0a8e8308477217087bad846feff18f8e9985343640424dbbd8"),
    "d=32": ("5b5e8dc911895e7adb786b32b48ab07bf8fbc852860f239c4ce9036048e90455",
             "ae7aec5ce8be1bac0525fc6808a1afec618e0aa28a78d25ad992168d7609bc0d",
             "5efa6d27a8c88becb470d2eb7d9a3c6d504c5f83c8a7b5b89da9d65b4473a8eb",
             "09a917a02b54798403a0096b0ae9f134783bf8349e0de33bc0a07e6ad5fa138b"),
    "identical": ("8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
                  "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
                  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
                  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "moons1k": ("eab04e39b845e7c795b10971f5f494fa28bf794c82e03b9257080ff9bdbbbc04",
                "115694e0876b9603d0d6b8ec621d7bd18cb7841b93370e44703d87bfd6f02616",
                "0d357dfef15f5d2dfac578e5c73bb9e86da0ecb2dfedec749cd809021227453e",
                "d99438bc46ee7f33496f63cd5722fde35756002d3f880a4f6ab89c1f165a09ad"),
    "n=1": ("4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "spirals2": ("4b9c3ec812a8c1b0e1b39d1d7abf250155daefe34048fd202a9395507967945e",
                 "fc218a6b7c64daa1ca59a82535033f10d3a547da792d173c71c6bb5bb5790bf6",
                 "cc16fe5dc3faf946ee80526e8753d7b975b9f79c05b7342ea34bbd2914e6d5f4",
                 "7cfe74387d93ea9b000abfb53cb6d3d03deb36ab975236c9680b262b7b3e3d60"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BALLS))
def test_generate_balls_matches_golden_digests(name):
    points = (_EDGE_INPUTS[name] if name in _EDGE_INPUTS
              else generate(BUNDLED_DATASETS[name]).points)
    balls = generate_balls(Dataset(points=points)).balls
    assert (_sha(np.array([b.size for b in balls], dtype=np.int64),
                 np.concatenate([b.members for b in balls]).astype(np.int64)),
            _sha(np.array([b.center for b in balls])),
            _sha(np.array([b.radius for b in balls])),
            _sha(np.array([b.sum_radius for b in balls]))) == GOLDEN_BALLS[name]


def test_division_trace_matches_golden_digests():
    # sha256 of the accepted splits' average distances (float64) and of the
    # rounds as (phase is divide, balls, splits, oversized) int64 rows, on
    # blobs10k; recorded before division moved to coordinate-major arrays
    trace = DivisionTrace()
    generate_balls(generate(BUNDLED_DATASETS["blobs10k"]), trace=trace)
    rounds = [(r.phase == "divide", r.ball_count, r.split_count, r.oversized_count)
              for r in trace.rounds]
    assert (_sha(np.array(trace.accepted_splits, dtype=np.float64)),
            _sha(np.array(rounds, dtype=np.int64)), trace.stop_reason) == (
        "2b2fff58a00f4789bd3b5ab51fd5338eacf5fe72c4eeb8131a2021ae56df2f99",
        "3ef42192d643847245c0f308c74a45eadf9d1120dd2e9c57e79ba7b9f0834214", "converged")


def test_partition_is_the_stable_sort_of_the_ok_segments():
    rng = np.random.default_rng(8)
    for trial in range(40):
        sizes = rng.integers(1, 301, int(rng.integers(2, 40)))
        starts, seg = segments(sizes)
        to_a = rng.uniform(size=sizes.sum()) < rng.uniform(size=sizes.size)[seg]
        # failed splits: every row on one side, a or b
        one_side = rng.uniform(size=sizes.size) < 0.25
        one_side[:2] = True
        side = rng.uniform(size=sizes.size) < 0.5
        side[:2] = True, False
        to_a = np.where(one_side[seg], side[seg], to_a)
        ok, side_sizes, part = _partition(to_a, sizes, starts)
        n_a = np.bincount(seg, weights=to_a, minlength=sizes.size).astype(np.int64)
        assert np.array_equal(ok, (n_a > 0) & (n_a < sizes))
        assert np.array_equal(side_sizes, np.column_stack((n_a[ok], sizes[ok] - n_a[ok])).ravel())
        by_side = np.argsort(seg * 2 + ~to_a, kind="stable")
        assert np.array_equal(part, by_side[ok[seg[by_side]]])


def test_segment_kernels_match_per_slice_numpy():
    rng = np.random.default_rng(5)
    for trial in range(60):
        d = (1, 2, 8)[trial % 3]
        sizes = np.concatenate([[7, 8, 9, 128, 129], rng.integers(1, 401, 20)])
        rng.shuffle(sizes)
        pts = rng.normal(0, 1, (sizes.sum(), d)) * 10.0 ** rng.integers(-6, 7, (sizes.sum(), d))
        starts = np.cumsum(sizes) - sizes
        slices = [slice(s, s + z) for s, z in zip(starts, sizes)]
        x = pts[:, 0].copy()
        starts, seg = segments(sizes)
        assert np.array_equal(segment_sums(x, sizes, starts, seg), [x[sl].sum() for sl in slices])
        centers, dists, radii, dist_sums = fit_segments(np.ascontiguousarray(pts.T), sizes, starts, seg)
        assert np.array_equal(centers.T, [pts[sl].mean(axis=0) for sl in slices])
        assert np.array_equal(radii, [dists[sl].max() for sl in slices])
        assert np.array_equal(dist_sums, [dists[sl].sum() for sl in slices])


def test_division_memory_stays_linear_in_points():
    centers = BUNDLED_DATASETS["blobs10k"].centers
    ds = generate(GeneratorSpec(family="blobs", n=100_000, seed=1, centers=centers, scales=0.5))
    tracemalloc.start()
    try:
        generate_balls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_division_memory_at_8_dimensions():
    # The tracemalloc peak of generate_balls here was 6.87 MiB before division
    # moved to coordinate-major arrays, and 5.89 MiB after; the bound allows
    # the former plus one (d, n) float64 copy of the points.
    n, d = 20_000, 8
    ds = _blob_points(n, d)
    tracemalloc.start()
    try:
        generate_balls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.87 * 2 ** 20 + 8 * n * d
