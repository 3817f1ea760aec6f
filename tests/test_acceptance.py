"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``).  Run:

    python -m pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from gbcluster.baselines import dbscan, dpeak
from gbcluster.cli import BENCH_BASELINES, EXIT_OK, EXIT_USAGE, main
from gbcluster.core import Dataset, fit_ball
from gbcluster.data import BUNDLED_DATASETS, generate
from gbcluster.differentiation import (_pairwise_center_distances, cluster, count_overlaps,
                                       distance_evaluations, merge_adjacent, tau)
from gbcluster.division import DivisionTrace, detect_oversized, generate_balls
from gbcluster.metrics import benchmark, rand_index
from reference_gbc import accepted_splits, adjacent, array_ballset, pair_adjacent


@contextmanager
def _criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


@lru_cache(maxsize=None)
def _pipeline(name):
    """One clustering run per bundled dataset, shared across criteria."""
    ds = generate(BUNDLED_DATASETS[name])
    trace = DivisionTrace()
    before = distance_evaluations()
    t0 = time.perf_counter()
    assignment, ballset = cluster(ds, trace=trace)
    wall = time.perf_counter() - t0
    return ds, assignment, ballset, trace, wall, distance_evaluations() - before


def test_criterion_1_parameter_free_adaptivity(tmp_path):
    with _criterion(1, "gbc runs on every bundled dataset with zero algorithm flags"):
        for name in BUNDLED_DATASETS:
            data = tmp_path / f"{name}.csv"
            assert main(["gen", "--dataset", name, "--out", str(data)]) == EXIT_OK
            assert main(["run", "--algo", "gbc", "--in", str(data),
                         "--out", str(tmp_path / name)]) == EXIT_OK, name
        for flag, value in (("--eps", "0.3"), ("--k", "2"),
                            ("--min-pts", "5"), ("--dc", "0.1")):
            assert main(["run", "--algo", "gbc", "--in", str(tmp_path / "moons1k.csv"),
                         flag, value]) == EXIT_USAGE


def test_criterion_2_two_moons_reproduction():
    with _criterion(2, "two moons: 2 clusters, rand index >= 0.95, under 1 s"):
        ds, assignment, _, _, wall, _ = _pipeline("moons1k")
        assert assignment.cluster_count == 2
        assert rand_index(ds.labels, assignment.labels) >= 0.95
        assert wall < 1.0


def test_criterion_3_mixed_density_blobs():
    with _criterion(3, "mixed-density blobs: 5 clusters, rand index >= 0.90, under 2 s"):
        ds, assignment, _, _, wall, _ = _pipeline("blobs5")
        assert assignment.cluster_count == 5
        assert rand_index(ds.labels, assignment.labels) >= 0.90
        assert wall < 2.0


def test_criterion_4_runtime_ordering():
    with _criterion(4, "10k-point benchmark: gbc < dbscan < dpeak median wall time"):
        ds = generate(BUNDLED_DATASETS["blobs10k"])
        params = BENCH_BASELINES["blobs10k"]
        gbc_t = benchmark(lambda d: cluster(d)[0], ds, repetitions=3).wall_time
        dbs_t = benchmark(lambda d: dbscan(d, params["dbscan"]), ds, repetitions=3).wall_time
        dpk_t = benchmark(lambda d: dpeak(d, params["dpeak"]), ds, repetitions=3).wall_time
        print(f"  median wall times: gbc={gbc_t:.3f}s dbscan={dbs_t:.3f}s dpeak={dpk_t:.3f}s")
        assert gbc_t < dbs_t < dpk_t


def test_criterion_5_no_oversized_balls_on_bundled_data():
    with _criterion(5, "final ball sets satisfy the oversized-radius rule on bundled data"):
        for name in BUNDLED_DATASETS:
            _, _, ballset, trace, _, _ = _pipeline(name)
            assert detect_oversized(ballset.radii).size == 0, name
            assert not trace.round_cap_hit, name


def test_criterion_6a_partition_after_every_round():
    with _criterion("6a", "partition holds after every division round (100 trials)"):
        rng = np.random.default_rng(60)
        for _ in range(100):
            n = int(rng.integers(2, 150))
            dim = int(rng.integers(1, 4))
            pts = rng.normal(0, 1, size=(n, dim))
            if rng.uniform() < 0.5:  # sometimes clustered, sometimes uniform
                pts[n // 2:] += rng.uniform(2, 8, size=dim)
            trace = DivisionTrace(capture_partitions=True)
            generate_balls(Dataset(points=pts), trace=trace)
            for snapshot in trace.partitions:
                seen = np.concatenate(snapshot)
                assert np.array_equal(np.sort(seen), np.arange(n))


def test_criterion_6b_accepted_splits_strictly_decrease():
    with _criterion("6b", "average distance strictly decreases along accepted splits"):
        rng = np.random.default_rng(61)
        with accepted_splits() as splits:
            for _ in range(30):
                n = int(rng.integers(40, 200))
                pts = rng.normal(0, 1, size=(n, 2))
                generate_balls(Dataset(points=pts))
            for name in ("moons1k", "blobs5"):
                cluster(generate(BUNDLED_DATASETS[name]))
        assert splits
        for parent_ad, child_a_ad, child_b_ad in splits:
            assert child_a_ad < parent_ad and child_b_ad < parent_ad


def test_criterion_6c_fit_ball_fixpoint():
    with _criterion("6c", "refitting a ball from its own members is stable to 1e-12"):
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            ds = Dataset(points=rng.uniform(-100, 100, size=(n, int(rng.integers(1, 5)))))
            members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            b1 = fit_ball(ds, members)
            b2 = fit_ball(ds, b1.order)
            assert np.allclose(b1.centers, b2.centers, rtol=1e-12, atol=0)
            for x, y in ((b1.radii[0], b2.radii[0]), (b1.sum_radius[0], b2.sum_radius[0]),
                         (b1.sum_radius[0] / b1.sizes[0], b2.sum_radius[0] / b2.sizes[0])):
                assert x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y))


def _random_ball(rng):
    """A ball as (centre, radius)."""
    center = rng.uniform(-3, 3, 2)
    return center, float(rng.uniform(0, 2))


def test_criterion_6d_adjacency_symmetry_and_overlap():
    with _criterion("6d", "adjacency is symmetric and overlap implies adjacency (1000 pairs)"):
        rng = np.random.default_rng(63)
        for _ in range(1000):
            bi, bj = _random_ball(rng), _random_ball(rng)
            oi, oj = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            assert pair_adjacent(bi, bj, oi, oj) == pair_adjacent(bj, bi, oj, oi)
            if float(np.sqrt(((bi[0] - bj[0]) ** 2).sum())) < bi[1] + bj[1]:
                assert pair_adjacent(bi, bj, oi, oj)


def test_criterion_6e_tau_monotone_on_full_grid():
    with _criterion("6e", "tau never increases with min overlap count (exhaustive grid)"):
        rng = np.random.default_rng(64)
        radii = [(0.5, 0.8), (1.0, 1.0), (0.05, 3.0)] + \
                [tuple(rng.uniform(0, 2, 2)) for _ in range(20)]
        for r_i, r_j in radii:
            for oi, oj in itertools.product(range(11), repeat=2):
                t = tau(r_i, r_j, oi, oj)
                assert t == min(r_i, r_j) / (1 + min(oi, oj))
                if min(oi, oj) < 10:
                    assert tau(r_i, r_j, min(oi, oj) + 1, max(oi, oj) + 1) <= t


def test_criterion_6f_merge_matches_transitive_closure():
    with _criterion("6f", "merging equals brute-force transitive closure (200 trials)"):
        rng = np.random.default_rng(65)
        for _ in range(200):
            m = int(rng.integers(1, 21))
            sizes, balls = zip(*[(int(rng.integers(1, 4) * 2), _random_ball(rng))
                                 for _ in range(m)])
            flags = rng.uniform(size=m) < 0.25
            bs = array_ballset(*zip(*balls), flags, sizes)
            sweep = _pairwise_center_distances(bs)
            bs.overlap_counts = count_overlaps(bs, sweep)
            got = merge_adjacent(bs, sweep)

            live = np.flatnonzero(~flags)
            adj = np.eye(live.size, dtype=bool)
            for a in range(live.size):
                for b in range(a + 1, live.size):
                    adj[a, b] = adj[b, a] = adjacent(bs, live[a], live[b])
            for _ in range(max(live.size, 1)):
                adj = adj | (adj @ adj)
            expected = np.full(m, -1, dtype=int)
            next_id = 0
            for a in range(live.size):
                if expected[live[a]] == -1:
                    expected[live[np.flatnonzero(adj[a])]] = next_id
                    next_id += 1
            assert got.tolist() == expected.tolist()


def _canonical_partitions(n, max_labels=3):
    """All first-occurrence-ordered label vectors of length n with <= max_labels."""
    vecs = [(0,)]
    for _ in range(n - 1):
        vecs = [v + (lab,) for v in vecs
                for lab in range(min(max(v) + 2, max_labels))]
    return vecs


def _pair_mask(v):
    mask = 0
    bit = 1
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if v[i] == v[j]:
                mask |= bit
            bit <<= 1
    return mask


def test_criterion_6g_rand_index_matches_all_pairs_oracle():
    # Relabelling either argument cannot change the index (checked below with
    # random relabellings), so partitions in canonical labelling cover every
    # distinct input up to 8 points and 3 labels; pairs of canonical vectors
    # are enumerated exhaustively.
    with _criterion("6g", "rand index equals the all-pairs oracle (exhaustive to n=8)"):
        for n in (2, 3, 4):  # short vectors: every labelling, not just canonical
            for a in itertools.product(range(3), repeat=n):
                for b in itertools.product(range(3), repeat=n):
                    pairs = math.comb(n, 2)
                    agree = pairs - bin(_pair_mask(a) ^ _pair_mask(b)).count("1")
                    assert rand_index(a, b) == agree / pairs
        for n in (5, 6, 7, 8):
            vecs = _canonical_partitions(n)
            masks = [_pair_mask(v) for v in vecs]
            pairs = math.comb(n, 2)
            for i, a in enumerate(vecs):
                for j, b in enumerate(vecs):
                    agree = pairs - bin(masks[i] ^ masks[j]).count("1")
                    assert rand_index(a, b) == agree / pairs
        rng = np.random.default_rng(66)  # random relabellings off canonical form
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            agree = math.comb(n, 2) - bin(_pair_mask(tuple(a)) ^ _pair_mask(tuple(b))).count("1")
            assert rand_index(a, b) == agree / math.comb(n, 2)


def test_criterion_6h_pipeline_determinism(tmp_path):
    with _criterion("6h", "identical seeds give byte-identical pipeline outputs"):
        data = tmp_path / "d.csv"
        other = tmp_path / "d_regen.csv"
        assert main(["gen", "--dataset", "moons1k", "--out", str(data)]) == EXIT_OK
        assert main(["gen", "--dataset", "moons1k", "--out", str(other)]) == EXIT_OK
        assert data.read_bytes() == other.read_bytes()
        for i in (1, 2):
            assert main(["run", "--algo", "gbc", "--in", str(data),
                         "--out", str(tmp_path / f"r{i}")]) == EXIT_OK
        for suffix in ("_points.csv", "_balls.csv"):
            assert ((tmp_path / f"r1{suffix}").read_bytes()
                    == (tmp_path / f"r2{suffix}").read_bytes())
        s1 = json.loads((tmp_path / "r1_summary.json").read_text())
        s2 = json.loads((tmp_path / "r2_summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")  # timings are wall-clock
        assert s1 == s2


def test_criterion_7_tau_worked_values():
    with _criterion(7, "adjustment coefficient reproduces the worked values"):
        assert abs(tau(0.5, 0.8, 2, 3) - 0.1667) <= 1e-3
        assert tau(0.5, 1.0, 0, 0) == 0.5


def test_criterion_8_distance_budget():
    with _criterion(8, "differentiation distance evaluations stay far below n^2/10"):
        ds, _, ballset, _, _, evals = _pipeline("moons1k")
        m = len(ballset)
        n = len(ds)
        print(f"  m={m} balls, {evals} distance evaluations, budget n^2/10 = {n * n // 10}")
        assert evals < n * n / 10
        assert evals <= m * m + n  # all-pairs over balls plus noise attachment
