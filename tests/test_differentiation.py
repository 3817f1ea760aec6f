"""Ball differentiation: overlap counts, adjacency, merging, noise points."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import gbcluster
from gbcluster.core import NOISE, BallSet, Dataset, fit_segments, squared_distances
from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate
from gbcluster.differentiation import (_pairwise_center_distances, adjacency_graph,
                                       assign_noise, cluster, count_overlaps,
                                       distance_evaluations, merge_adjacent, tau)
from gbcluster.division import DivisionTrace, generate_balls
import reference_gbc
from reference_gbc import accepted_splits, array_ballset, pair_adjacent


def _ball(center, radius, size=5):
    """One ball as (centre, radius, size), for ``_ballset``."""
    return np.asarray(center, dtype=float), float(radius), size


def _ballset(balls, noise_flags=None):
    centers, radii, sizes = zip(*balls)
    flags = np.zeros(len(balls), dtype=bool) if noise_flags is None else noise_flags
    return array_ballset(centers, radii, flags, sizes)


def _kept(sweep):
    """The pairs the sweep kept, (K, 2), and their gaps, its batches joined."""
    pairs, gaps = zip(*sweep.kept) if sweep.kept else ((), ())
    return np.concatenate([np.empty((0, 2), np.int64), *pairs]), np.concatenate([np.empty(0), *gaps])


def _fitted(ds, groups):
    """The balls that fit_ball gives the member groups, as one BallSet."""
    order = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    sizes = np.array([len(g) for g in groups])
    centers, _, radii, sums = fit_segments(ds.points[order].T.copy(), sizes)
    return BallSet(order=order, sizes=sizes, centers=centers.T, radii=radii, sum_radius=sums)


def test_count_overlaps_examples():
    disjoint = _ballset([_ball([0, 0], 1), _ball([3, 0], 1)])
    assert count_overlaps(disjoint, _pairwise_center_distances(disjoint)).tolist() == [0, 0]
    touching = _ballset([_ball([0, 0], 1), _ball([1.5, 0], 1)])
    assert count_overlaps(touching, _pairwise_center_distances(touching)).tolist() == [1, 1]
    triple = _ballset([_ball([0, 0], 1), _ball([1, 0], 1), _ball([0.5, 0.5], 1)])
    assert count_overlaps(triple, _pairwise_center_distances(triple)).tolist() == [2, 2, 2]


def test_count_overlaps_is_strict_and_skips_noise():
    # exact tangency (distance == r_i + r_j) does not count as overlap
    tangent = _ballset([_ball([0, 0], 1), _ball([2, 0], 1)])
    assert count_overlaps(tangent, _pairwise_center_distances(tangent)).tolist() == [0, 0]
    with_noise = _ballset([_ball([0, 0], 1), _ball([0.5, 0], 1, size=1)], [False, True])
    assert count_overlaps(with_noise, _pairwise_center_distances(with_noise)).tolist() == [0, 0]


def test_are_adjacent_examples():
    # overlapping balls (negative gap) are adjacent for any overlap counts
    for o in ((0, 0), (3, 7), (10, 10)):
        assert pair_adjacent(_ball([0, 0], 1), _ball([1.5, 0], 1), *o)
    # gap 1 with tau = 1/(1+1) = 0.5 -> not adjacent
    assert not pair_adjacent(_ball([0, 0], 1), _ball([3, 0], 1), 1, 2)
    # gap 0.3 with tau = 1 -> adjacent
    assert pair_adjacent(_ball([0, 0], 1), _ball([2.3, 0], 1), 0, 0)


def test_overlapping_pair_is_joined_however_small_tau_is():
    # a centre gap 2**-40 short of r_i + r_j: the pair overlaps, and overlap
    # counts of 10**15 make tau about 1e-15, far below the pair's gap in
    # magnitude; the sweep joins it anyway, and tau never sees it
    bs = _ballset([_ball([0.0, 0.0], 1.0), _ball([2.0 - 2.0 ** -40, 0.0], 1.0)])
    sweep = _pairwise_center_distances(bs)
    assert sweep.counts.tolist() == [1, 1] and sweep.root.tolist() == [0, 0]
    assert _kept(sweep)[0].tolist() == []
    bs.overlap_counts = np.array([10 ** 15, 10 ** 15])
    assert tau(1.0, 1.0, 10 ** 15, 10 ** 15) < 2.0 ** -40
    assert adjacency_graph(bs, sweep).edges.tolist() == []
    assert merge_adjacent(bs, sweep).tolist() == [0, 0]


def test_tangent_pair_is_left_to_tau():
    # gap exactly 0: not an overlap (counts stay 0), so the pair is kept with
    # its gap and tau decides it: tau = 1 joins the unit balls, and the tau
    # of 0 that a zero radius gives does not join the other pair
    unit = _ballset([_ball([0.0, 0.0], 1.0), _ball([2.0, 0.0], 1.0)])
    sweep = _pairwise_center_distances(unit)
    assert sweep.counts.tolist() == [0, 0] and sweep.root.tolist() == [0, 1]
    pairs, gaps = _kept(sweep)
    assert pairs.tolist() == [[0, 1]] and gaps.tolist() == [0.0]
    unit.overlap_counts = count_overlaps(unit, sweep)
    assert adjacency_graph(unit, sweep).edges.tolist() == [[0, 1]]
    assert merge_adjacent(unit, sweep).tolist() == [0, 0]
    point = _ballset([_ball([0.0, 0.0], 1.0), _ball([1.0, 0.0], 0.0)])
    sweep = _pairwise_center_distances(point)
    point.overlap_counts = count_overlaps(point, sweep)
    assert point.overlap_counts.tolist() == [0, 0]
    assert merge_adjacent(point, sweep).tolist() == [0, 1]


def _adjacency_inputs():
    """Random ball lists, then hand-made pairs with the edge they must give."""
    rng = np.random.default_rng(41)
    for _ in range(25):
        m = int(rng.integers(1, 15))
        yield [_ball(rng.uniform(0, 5, 2), rng.uniform(0.05, 1.0),
                     size=int(rng.integers(1, 5))) for _ in range(m)], None
    # no overlaps, so tau = min(r) = 0.5: a gap just below it is adjacent,
    # a gap equal to it is not
    yield [_ball([0.0, 0.0], 1.0), _ball([np.nextafter(2.0, 0.0), 0.0], 0.5)], [[0, 1]]
    yield [_ball([0.0, 0.0], 1.0), _ball([2.0, 0.0], 0.5)], []


def test_adjacency_graph_matches_pairwise_predicate():
    for balls, expected in _adjacency_inputs():
        bs = _ballset(balls, [size == 1 for _, _, size in balls])
        sweep = _pairwise_center_distances(bs)
        bs.overlap_counts = count_overlaps(bs, sweep)
        graph = adjacency_graph(bs, sweep)
        assert set(graph.nodes) == set(np.flatnonzero(bs.sizes > 1))
        assert all(i < j for i, j in graph.edges)  # no self-loops, one edge per pair
        # overlapping pairs are joined by the sweep, the others by tau
        want = reference_gbc.sweep(bs)
        assert sweep.root.tolist() == want.root.tolist()
        assert sorted(graph.edges.tolist()) == reference_gbc.adjacent_kept(bs, want).tolist()
        if expected is not None:
            assert not bs.overlap_counts.any()
            assert graph.edges.tolist() == expected


def _merged(balls, flags=None):
    bs = _ballset(balls, flags)
    sweep = _pairwise_center_distances(bs)
    bs.overlap_counts = count_overlaps(bs, sweep)
    return merge_adjacent(bs, sweep)


def test_merge_chain_gives_one_cluster():
    chain = [_ball([i * 1.5, 0], 1) for i in range(5)]
    assert _merged(chain).tolist() == [0, 0, 0, 0, 0]


def test_merge_two_groups():
    balls = [_ball([0, 0], 0.5), _ball([0.6, 0], 0.5),
             _ball([100, 0], 0.5), _ball([100.6, 0], 0.5)]
    assert _merged(balls).tolist() == [0, 0, 1, 1]


def test_merge_all_noise():
    balls = [_ball([0, 0], 0, size=1), _ball([5, 0], 0, size=1)]
    assert _merged(balls, [True, True]).tolist() == [-1, -1]


def test_assign_noise_examples():
    # two-ball cluster plus one stray point sitting inside the first ball
    pts = np.array([[0.0, 0.0], [0.4, 0.0], [1.0, 0.0], [1.4, 0.0], [0.2, 0.1],
                    [500.0, 500.0]])
    ds = Dataset(points=pts)
    bs = _fitted(ds, [[0, 1], [2, 3], [4], [5]])
    assert bs.noise_ball_flags.tolist() == [False, False, True, True]
    sweep = _pairwise_center_distances(bs)
    bs.overlap_counts = count_overlaps(bs, sweep)
    ids = merge_adjacent(bs, sweep)
    a = assign_noise(ds, bs, ids, sweep)
    assert a.labels[4] == a.labels[0]     # gap <= 0: absorbed
    assert a.labels[5] == -1              # far beyond the mean radius: noise

    # a point at equal gap 0.5 from two unit balls in different clusters
    # joins the ball with the lower index
    ds = Dataset(points=np.array([[2.0, 0.0], [4.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [1.5, 0.0]]))
    bs = _fitted(ds, [[0, 1], [2, 3], [4]])
    sweep = _pairwise_center_distances(bs)
    bs.overlap_counts = count_overlaps(bs, sweep)
    ids = merge_adjacent(bs, sweep)
    assert ids.tolist() == [0, 1, -1]
    assert assign_noise(ds, bs, ids, sweep).labels.tolist() == [0, 0, 1, 1, 0]


def test_assign_noise_identity_without_singletons():
    ds = generate(GeneratorSpec(family="blobs", n=60, seed=2,
                                centers=((0.0, 0.0), (30.0, 0.0)), scales=(0.5, 0.5)))
    assignment, ballset = cluster(ds)
    assert not ballset.noise_ball_flags.any()
    assert assignment.noise_count == 0
    for members in np.split(ballset.order, np.cumsum(ballset.sizes)[:-1]):
        assert np.unique(assignment.labels[members]).size == 1


def test_assign_noise_memory_at_32_dimensions():
    # three noise points among 20,000 at d = 32: the sweep and the labels
    # touch no (d, n) copy of all points (4.9 MiB here); the peak is the
    # label arrays, three int64 values per point at the most.  Each one-point
    # ball's centre is its point, as in cluster()
    n, d = 20_000, 32
    rng = np.random.default_rng(3)
    ds = Dataset(points=rng.normal(size=(n, d)))
    bs = BallSet(order=np.arange(n), sizes=np.array([n // 2 - 2, n // 2 - 1, 1, 1, 1]),
                 centers=np.vstack([rng.normal(size=(2, d)), ds.points[-3:]]),
                 radii=np.array([5.0, 5.0, 0.0, 0.0, 0.0]), sum_radius=np.zeros(5))
    ids = np.array([0, 1, NOISE, NOISE, NOISE])
    tracemalloc.start()
    try:
        sweep = _pairwise_center_distances(bs)
        labels = assign_noise(ds, bs, ids, sweep).labels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n
    assert np.array_equal(labels[:-3], np.repeat([0, 1], [n // 2 - 2, n // 2 - 1]))
    # within the mean radius: each joins its nearer ball
    assert labels.tolist() == reference_gbc.attach(bs, ids, reference_gbc.sweep(bs)).tolist()
    assert labels.min() >= 0


def test_cluster_two_moons():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    assignment, ballset = cluster(ds)
    assert assignment.cluster_count == 2
    assert len(assignment) == len(ds)


def test_cluster_five_mixed_density_blobs():
    ds = generate(BUNDLED_DATASETS["blobs5"])
    assignment, _ = cluster(ds)
    assert assignment.cluster_count == 5


def test_cluster_single_blob():
    ds = generate(GeneratorSpec(family="blobs", n=400, seed=9,
                                centers=((0.0, 0.0),), scales=(0.4,)))
    assignment, _ = cluster(ds)
    assert assignment.cluster_count == 1
    assert assignment.noise_count <= 2


def test_cluster_fills_overlap_counts():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    _, ballset = cluster(ds)
    assert ballset.overlap_counts.tolist() == reference_gbc.sweep(ballset).counts.tolist()
    assert (ballset.overlap_counts[ballset.noise_ball_flags] == 0).all()


def test_distance_budget_scales_with_balls_not_points():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    before = distance_evaluations()
    _, ballset = cluster(ds)
    evals = distance_evaluations() - before
    m = len(ballset)
    assert 0 < evals <= m * m
    assert evals < len(ds) ** 2 / 10
    # squared centre distances the leaf tiles compute, each pair at most
    # once, plus (noise point, ball) pairs.  moons1k has no noise balls, and
    # its 81 centres lie in two strips of one kd leaf each (a leaf holds up
    # to 64 centres, or more where a strip and the next hold fewer than 512):
    # the leaves meet, and nothing is cut, so all 81 * 80 / 2 pairs count
    assert evals == 3240


def test_cluster_sweeps_once_and_runs_each_stage_once(monkeypatch):
    # one division with one root fit, one geometry sweep that serves the
    # overlap counts, the merge and the noise balls, and detect_oversized
    # once per refinement round plus the check that ends refinement
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("generate_balls", "_pairwise_center_distances", "count_overlaps",
                 "merge_adjacent", "adjacency_graph", "assign_noise"):
        counted(gbcluster.differentiation, name)
    for name in ("fit_ball", "detect_oversized"):
        counted(gbcluster.division, name)
    trace = DivisionTrace()
    cluster(generate(BUNDLED_DATASETS["blobs5"]), trace=trace)
    refine = sum(r.phase == "refine" for r in trace.rounds)
    assert trace.stop_reason == "converged" and refine > 0
    assert calls == {"generate_balls": 1, "fit_ball": 1, "detect_oversized": refine + 1,
                     "_pairwise_center_distances": 1, "count_overlaps": 1,
                     "merge_adjacent": 1, "adjacency_graph": 1, "assign_noise": 1}


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


# sha256 of the int64 bytes of (labels, overlap_counts) from cluster(); computed
# with the dense all-pairs geometry pass, before the grid-bucketed one replaced it.
GOLDEN = {
    "moons1k": ("d4232cf82015742bc86fad9f7039342df970c5e033bb164ccb9d0de60b4201c0",
                "34a26699bc16a0073da2f1b4440ca0e07c96b47cd5261f9938694229f9b5f27c"),
    "blobs5": ("eab93d3c31c846d8a32438e0b0c74167d5deaffa9b558b71a9bc4c62a12f2f3c",
               "2fc314eaa88e697740b207355a1a72b4e57d03bb187a896efcc1ea5fe857597a"),
    "circles3": ("67db9936cfbd7ab7af771a5e101b157b94a751be571806f1f4290cb9d69ec6d6",
                 "c582c769c4e0696fcad143a0876b15579d7c8b09daf39c5f2e018a693c9cc25d"),
    "spirals2": ("7b694bdbe3fea1540354ab2c2b62ae6b2f4450bde29ace40f05c1a3e95dd2076",
                 "73300f38518e6491911e0df13a7dd6e1311dd48f58a69345b30c17c8861572f5"),
    "blobs10k": ("794d998949b8ece9cd9b6cd36ba7e31ecce6978258f5948ec0d104f18035a8c7",
                 "a210990334aaf124f866cd527a1a86fc7bcaaf5c7e05f00e45f89219548164d6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cluster_matches_golden_digests(name):
    assignment, ballset = cluster(generate(BUNDLED_DATASETS[name]))
    assert (_sha(assignment.labels), _sha(ballset.overlap_counts)) == GOLDEN[name]


def _random_ballset(rng, d):
    m = int(rng.integers(1, 40))
    centers = rng.uniform(0, 5, (m, d))
    if rng.uniform() < 0.3:  # coincident centres
        centers[rng.integers(0, m, m // 2)] = centers[0]
    radii = rng.choice([np.zeros(m), np.full(m, rng.uniform(0.2, 1.5)), rng.uniform(0, 1.5, m)])
    return array_ballset(centers, radii, rng.uniform(size=m) < 0.2)


def test_overlaps_and_merge_match_all_pairs_oracle():
    rng = np.random.default_rng(7)
    for trial in range(400):
        bs = _random_ballset(rng, d=(1, 2, 3, 8)[trial % 4])
        want = reference_gbc.sweep(bs)
        sweep = _pairwise_center_distances(bs)
        bs.overlap_counts = count_overlaps(bs, sweep)
        assert bs.overlap_counts.tolist() == want.counts.tolist()
        assert merge_adjacent(bs, sweep).tolist() == reference_gbc.merge(bs, want).tolist()


# within reach, yet their squared distance rounds one ulp above fl(lim**2)
# (see test_prefilter_keeps_a_pair_whose_squared_distance_rounds_past_the_bound)
_EDGE_RADII = (0.71155184304429, 1.229170057379424)
_EDGE_PAIR = ([3.902743520047924, -2.7284240646662026], [6.415008070939091, -1.878081288707366])


def _clusters(rng, d):
    """Eight tight groups of 75 centres, in one strip, each far from the next in
    every coordinate, so that the kd leaves are half groups and the boxes of
    most leaf pairs are far apart.  Groups 4 and 5 hold the edge pair p, q
    (its second coordinate dropped in 1-d, zero steps added from the third
    on): p is the top corner of every coordinate of group 4, q the bottom
    corner of group 5, and each has the largest radius of its group.  Their
    leaves then are exactly as far apart as p and q, and they meet only
    through the 1 + 2**-40 factor of the bound (from d = 2)."""
    p, q = (np.pad(np.array(v)[:d], (0, max(0, d - 2))) for v in _EDGE_PAIR)
    ri, rj = _EDGE_RADII
    groups = [np.full((75, d), 10.0 * g - 60) + rng.uniform(0, 0.2, (75, d)) for g in range(4)]
    groups += [p - rng.uniform(0.001, 0.2, (75, d)), q + rng.uniform(0.001, 0.2, (75, d))]
    groups += [np.full((75, d), 10.0 * g) + rng.uniform(0, 0.2, (75, d)) for g in (2, 3)]
    centers = np.vstack(groups)
    centers[300], centers[375] = p, q
    radii = rng.uniform(0, 0.5, 600)
    radii[300:375] = rng.uniform(0, ri, 75)
    radii[375:450] = rng.uniform(0, rj, 75)
    radii[300], radii[375] = ri, rj
    radii[0] = 30.0  # reach 120, wider than the span: one strip
    return centers, radii


def _sweep_inputs(rng, d):
    """Centres and radii that cross strip, leaf and tile boundaries, edge values included."""
    m = 600
    x = rng.uniform(0, 10, (m, d))
    x[:, 2:] *= 0.1  # so that pairs come within reach in 8 to 16 dimensions too
    small = rng.uniform(0, 0.5, m)
    big = small.copy()
    big[0] = 2.0  # strips 8 wide: two strips of several blocks each
    lattice = np.floor(x * 4) / 4  # strips 2 wide from 0: an eighth of the centres on strip edges
    cases = {"small": (x, small), "big": (x, big), "lattice": (lattice, rng.choice([0.25, 0.5], m)),
             "offset": (x + 1e12, big), "lattice offset": (lattice + 1e12, np.full(m, 0.5)),
             "zero radii": (x, np.zeros(m)), "zero span": (np.ones((m, d)), small),
             "zero span and radii": (np.ones((m, d)), np.zeros(m)),
             "tiny": (x * 1e-160, big * 1e-160), "huge": (x * 1e150, big * 1e150),
             "overflow": (x * 1e154, big * 1e154)}
    for name, (centers, radii) in cases.items():
        yield name, array_ballset(centers, radii, rng.uniform(size=m) < 0.1)
    yield "clusters", array_ballset(*_clusters(rng, d), np.zeros(m, bool))
    # noise balls just off small live balls, within the mean live radius
    # (0.11, raised by ten far balls) of their surfaces or beyond it: only the
    # mean radius that noise balls reach with brings them into the bounds
    radii = np.r_[np.full(290, 0.01), np.full(10, 3.0), np.zeros(300)]
    centers = np.vstack([x[:290], 1000 + x[:10] * 0.1, x[np.arange(300) % 290]])
    centers[300:, 0] += 0.01 + rng.uniform(0, 0.12, 300)
    yield "noise off small balls", array_ballset(centers, radii, np.arange(m) >= 300)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 16])
def test_pairwise_center_distances_match_all_pairs(d):
    # over all pairs, the squares added in coordinate order: the overlap
    # count of every ball, the components that overlapping pairs join,
    # every pair within reach that does not overlap, with its gap bits, and
    # every noise ball and live ball whose gap to the live ball's surface is
    # within the mean live radius, with that gap's bits
    rng = np.random.default_rng(d)
    for name, bs in _sweep_inputs(rng, d):
        with np.errstate(over="ignore", invalid="ignore"):
            sweep = _pairwise_center_distances(bs)
        want = reference_gbc.sweep(bs)
        assert (want.kept.size > 0 or want.counts.any()) == (bs.radii[~bs.noise_ball_flags] > 0).any(), name
        assert sweep.counts.tolist() == want.counts.tolist(), name
        assert sweep.root.tolist() == want.root.tolist(), name
        pairs, gaps = _kept(sweep)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        assert pairs[order].tolist() == want.kept.tolist(), name
        assert gaps[order].tobytes() == want.gaps.tobytes(), name
        order = np.lexsort((sweep.noise[2], sweep.noise[0]))
        for got, expected in zip(sweep.noise, want.noise):
            assert got[order].tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("d", [2, 8])
def test_pairwise_center_distances_match_all_pairs_in_chunks(d, monkeypatch):
    # with tiles of 1,024 entries the row leaves of one strip go in several chunks
    monkeypatch.setattr(gbcluster.differentiation, "_TILE", 2 ** 10)
    test_pairwise_center_distances_match_all_pairs(d)


def test_prefilter_keeps_a_pair_whose_squared_distance_rounds_past_the_bound(monkeypatch):
    # within reach, yet the squared distance rounds one ulp above fl(lim**2):
    # the prefilter's factor 1 + 2**-40 keeps it.  A tile row's bound takes
    # the larger radius twice, so the factor counts in the leaf box test,
    # which on leaves of one ball computes the pair's own acc and lim.
    (ri, rj), (p, q) = _EDGE_RADII, _EDGE_PAIR
    lim = (ri + rj) + min(ri, rj)
    acc = squared_distances(np.array(p)[:, None], np.array(q)[:, None])[0]
    assert acc > lim * lim and np.sqrt(acc) - (ri + rj) < min(ri, rj)
    bs = array_ballset([p, q], [ri, rj], [False, False])
    for leaf_size in (None, 1):
        if leaf_size:
            monkeypatch.setattr(gbcluster.differentiation, "_FILL", leaf_size)
            monkeypatch.setattr(gbcluster.differentiation, "_TILE", leaf_size)
        sweep = _pairwise_center_distances(bs)
        # apart (acc > lim**2 > (r_i + r_j)**2), so kept with its gap
        assert sweep.counts.tolist() == [0, 0] and sweep.root.tolist() == [0, 1]
        pairs, gaps = _kept(sweep)
        assert pairs.tolist() == [[0, 1]] and gaps.tolist() == [np.sqrt(acc) - (ri + rj)]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_assign_noise_matches_all_balls_oracle(d):
    # each singleton point joins the cluster of the ball with the least gap
    # (ties to the lowest ball index) when that gap is <= the mean live radius
    rng = np.random.default_rng(10 + d)
    for trial in range(12):
        m, k = int(rng.integers(2, 300)), int(rng.integers(1, 400))
        if trial % 3 == 0:  # integer centres, equal radii, half-integer points: many ties
            centers = rng.integers(0, 6, (m, d)).astype(float)
            radii = np.full(m, 0.5)
            singles = rng.integers(0, 12, (k, d)) / 2
        else:
            centers = rng.uniform(0, 10, (m, d))
            radii = rng.uniform(0, 1, m) * (trial % 3 == 1)  # all 0 on some trials
            singles = np.vstack([rng.uniform(-2, 12, (k, d)), centers[:3]])
        offset = 1e12 if trial % 4 == 3 else 0.0
        centers, singles = centers + offset, singles + offset
        pts = np.vstack([np.repeat(centers, 2, axis=0), singles])
        bs = BallSet(order=np.arange(len(pts)), sizes=np.r_[np.full(m, 2), np.ones(len(singles), int)],
                     centers=np.vstack([centers, singles]), radii=np.r_[radii, np.zeros(len(singles))],
                     sum_radius=np.zeros(m + len(singles)))
        ids = np.r_[np.arange(m) % max(1, m // 3), np.full(len(singles), -1)]
        labels = assign_noise(Dataset(points=pts), bs, ids, _pairwise_center_distances(bs)).labels
        expected = reference_gbc.attach(bs, ids, reference_gbc.sweep(bs))
        assert labels[2 * m:].tolist() == expected[2 * m:].tolist()
        assert labels[:2 * m].tolist() == np.repeat(ids[:m], 2).tolist()


def test_cluster_matches_the_reference_pipeline(monkeypatch):
    # cluster() against reference_gbc.cluster, bit for bit: the balls'
    # members, centres, radii and distance sums, the overlap counts, the
    # labels, the division rounds, the splits accepted and why refinement
    # stopped, under a random split floor and round cap
    rng = np.random.default_rng(32)
    stops = Counter()
    for trial in range(60):
        n, d = int(rng.integers(1, 2001)), int(rng.choice([1, 2, 3, 8, 16, 129]))
        if trial % 5 == 0:  # wide tails
            pts = rng.standard_cauchy(size=(n, d))
        elif trial % 5 == 1:  # duplicate points
            pts = rng.normal(size=(n // 8 + 1, d))[rng.integers(0, n // 8 + 1, n)]
        elif trial % 5 == 2:  # an integer grid, where distinct points tie in distance
            pts = rng.integers(0, 5, size=(n, d)).astype(float)
        elif trial % 5 == 3:  # imbalanced blobs
            centers = rng.uniform(-10, 10, (4, d))
            pts = centers[rng.choice(4, n, p=[0.85, 0.1, 0.04, 0.01])] + rng.normal(0, 0.5, (n, d))
        else:
            pts = rng.normal(size=(n, d))
        pts = np.ldexp(pts, int(rng.choice([0, 0, 900, -900])))
        monkeypatch.setattr(gbcluster.division, "MIN_SPLIT_SIZE", int(rng.integers(2, 41)))
        monkeypatch.setattr(gbcluster.division, "MAX_REFINEMENT_ROUNDS", int(rng.choice([0, 1, 3, 100])))
        trace = DivisionTrace()
        with warnings.catch_warnings(record=True) as caught, accepted_splits() as splits:
            warnings.simplefilter("always")
            assignment, balls = cluster(Dataset(points=pts), trace)
        labels, want, div = reference_gbc.cluster(pts)
        assert len(caught) == (div.stop_reason == "round_cap"), trial  # the cap's warning alone
        assert (trace.rounds, trace.stop_reason, splits) == (div.rounds, div.stop_reason, div.splits), trial
        for name in ("order", "sizes", "centers", "radii", "sum_radius", "overlap_counts"):
            assert getattr(balls, name).tobytes() == getattr(want, name).tobytes(), (trial, name)
        assert assignment.labels.tobytes() == labels.tobytes(), trial
        stops[div.stop_reason] += 1
    assert len(stops) == 3  # premise: refinement stops in each of its three ways


_EDGE_INPUTS = {"n=1": np.zeros((1, 2)), "identical": np.ones((50, 2)),
                "1-d": np.linspace(0, 1, 300)[:, None],
                "d=32": np.random.default_rng(0).normal(size=(500, 32))}


@pytest.mark.parametrize("points, expected", [
    (_EDGE_INPUTS["n=1"], (1, 0, 1)),
    (_EDGE_INPUTS["identical"], (1, 1, 0)),
    (_EDGE_INPUTS["1-d"], (16, 1, 0)),
    (_EDGE_INPUTS["d=32"], (39, 1, 0)),
], ids=["n=1", "identical", "1-d", "d=32"])
def test_cluster_edge_inputs(points, expected):
    # (balls, clusters, noise points) as the dense all-pairs geometry pass gave them
    assignment, ballset = cluster(Dataset(points=points))
    assert (len(ballset), assignment.cluster_count, assignment.noise_count) == expected


@pytest.mark.parametrize("name", sorted(BUNDLED_DATASETS) + sorted(_EDGE_INPUTS))
def test_one_point_balls_sit_at_their_points(name):
    # cluster() hands assign_noise the sweep's gaps of the noise balls' centres
    # as those of their points: the centre of a one-point ball is its point,
    # bit for bit
    points = _EDGE_INPUTS[name] if name in _EDGE_INPUTS else generate(BUNDLED_DATASETS[name]).points
    bs = generate_balls(Dataset(points=points))
    one = bs.sizes == 1
    assert np.array_equal(bs.noise_ball_flags, one)
    assert bs.centers[one].tobytes() == points[bs.order[bs.starts[one]]].tobytes()


def test_geometry_pass_memory_stays_linear_in_balls():
    # 5,000 balls of radius 0.5 on a 100 x 50 grid with spacing 1: a dense
    # (m, m, 2) float64 array alone would take 400 MB.
    xy = np.stack(np.meshgrid(np.arange(100.0), np.arange(50.0)), axis=-1).reshape(-1, 2)
    bs = array_ballset(xy, np.full(len(xy), 0.5), np.zeros(len(xy), bool))
    tracemalloc.start()
    try:
        sweep = _pairwise_center_distances(bs)
        bs.overlap_counts = count_overlaps(bs, sweep)
        ids = merge_adjacent(bs, sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert not bs.overlap_counts.any()
    assert ids.max() == 0  # gap 0 < tau = 0.5: the whole grid is one cluster


def test_geometry_pass_memory_at_d8():
    # the 8-d blobs of 20,000 points the benchmark clusters: the 1,176 centres
    # fall into two strips, whose raw coordinates cannot tell the blobs
    # apart, but the boxes of the kd leaves inside them can.  So the tiles
    # compute about as many of the 690,900 pairs as lie within 3 * r_max
    # (138,092).  Of the 138,053 pairs within reach, 135,123 overlap and are
    # counted and joined in the sweep; only the other 2,930 are kept
    centers = np.hstack([np.array(BUNDLED_DATASETS["blobs10k"].centers),
                         np.random.default_rng(1).uniform(-3.0, 9.0, size=(5, 6))])
    spec = GeneratorSpec(family="blobs", n=20_000, seed=1, scales=(0.5,) * 5,
                         centers=tuple(map(tuple, centers.tolist())))
    bs = generate_balls(generate(spec))
    live = np.flatnonzero(~bs.noise_ball_flags)
    i, j = np.triu_indices(live.size, 1)
    c, r_max = bs.centers[live], bs.radii[live].max()
    within = np.count_nonzero(((c[i] - c[j]) ** 2).sum(axis=1) < (3 * r_max) ** 2)
    assert within == 138_092
    before = distance_evaluations()
    tracemalloc.start()
    try:
        sweep = _pairwise_center_distances(bs)
        evals = distance_evaluations() - before
        bs.overlap_counts = count_overlaps(bs, sweep)
        ids = merge_adjacent(bs, sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evals <= 1.5 * within
    assert peak < 10 * 2 ** 20
    overlapping, kept = int(bs.overlap_counts.sum()) // 2, len(_kept(sweep)[1])
    assert (overlapping, kept) == (135_123, 2_930)
    # the sweep, overlaps and merge hold no pair that overlaps: they stay
    # below the 24 B a pair of an (E, 2) int64 and distance result of the
    # 138,053 pairs (2.58 of 3.16 MiB on Python 3.11 with numpy 2.4)
    assert peak < 24 * (overlapping + kept)
    assert ids.max() == 4


def test_geometry_memory_on_a_dense_8d_set():
    # 2,000 balls of one 8-d cloud, 1.99 M of their 2.0 M pairs within reach
    # and 1.70 M overlapping.  As an (E, 2) int64 and distance result those
    # pairs took 24 B each; the sweep holds only the kept ones, 24 B each,
    # the centres and one batch (9.9 of 45.6 MiB on Python 3.11 with numpy 2.4)
    rng = np.random.default_rng(8)
    bs = array_ballset(rng.normal(size=(2_000, 8)), rng.uniform(2.0, 3.0, 2_000), np.zeros(2_000, bool))
    tracemalloc.start()
    try:
        sweep = _pairwise_center_distances(bs)
        bs.overlap_counts = count_overlaps(bs, sweep)
        ids = merge_adjacent(bs, sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    overlapping, kept = int(bs.overlap_counts.sum()) // 2, len(_kept(sweep)[1])
    assert overlapping > 1_500_000 and overlapping + kept > 1_900_000
    assert peak < 24 * (overlapping + kept) / 2
    assert ids.tolist() == [0] * 2_000


def test_clustering_does_not_import_scipy():
    # a fresh interpreter, so that no other test's imports count
    src = os.path.dirname(os.path.dirname(gbcluster.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy as np, gbcluster, gbcluster.cli\n"
            "points = np.random.default_rng(0).normal(size=(300, 2))\n"
            "gbcluster.cluster(gbcluster.Dataset(points=points))\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("exp", [900, -900])
def test_cluster_is_exact_under_power_of_two_scaling(exp):
    # far outside [2**-256, 2**256] the points are clustered scaled back by a
    # power of two, so the result is blobs5's, with its geometry scaled
    ds = generate(BUNDLED_DATASETS["blobs5"])
    with accepted_splits() as splits:
        assignment, balls = cluster(ds)
    with accepted_splits() as scaled_splits:
        scaled_assignment, scaled = cluster(Dataset(points=np.ldexp(ds.points, exp)))
    assert np.array_equal(scaled_assignment.labels, assignment.labels)
    assert np.array_equal(scaled.order, balls.order) and np.array_equal(scaled.sizes, balls.sizes)
    for name in ("centers", "radii", "sum_radius"):
        assert np.array_equal(getattr(scaled, name), np.ldexp(getattr(balls, name), exp)), name
    # division saw the points scaled by one power of two, and so its splits
    shift = math.frexp(scaled_splits[0][0])[1] - math.frexp(splits[0][0])[1]
    assert len(scaled_splits) == len(splits) > 0
    assert np.array_equal(scaled_splits, np.ldexp(splits, shift))


def test_cluster_at_the_top_of_the_float_range_warns_nothing():
    # the radius 1e308 and the centre are exact; the distance sum, 2e308, is
    # past the float range and reads inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assignment, balls = cluster(Dataset(points=[[1e308], [-1e308]]))
    assert assignment.labels.tolist() == [0, 0]
    assert (balls.centers.tolist(), balls.radii.tolist(), balls.sum_radius.tolist()) == (
        [[0.0]], [1e308], [math.inf])


@pytest.mark.parametrize("factor", [1e300, 1e-300])
def test_cluster_finds_the_blobs_at_extreme_scales(factor):
    # unscaled, squared distances overflow (1e300) or vanish (1e-300) and
    # every point lands in one cluster
    ds = generate(BUNDLED_DATASETS["blobs5"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assignment, _ = cluster(Dataset(points=ds.points * factor))
    assert assignment.cluster_count == 5
