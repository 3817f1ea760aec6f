"""Baseline algorithms: K-Means, DBSCAN, DPeak."""

import math

import numpy as np
import pytest

from gbcluster.baselines import (DbscanConfig, DpeakConfig, KMeansConfig,
                                 dbscan, dpeak, dpeak_state, kmeans)
from gbcluster.core import Dataset
from gbcluster.data import GeneratorSpec, generate
from gbcluster.metrics import rand_index


def _two_blobs(n=200, seed=4):
    return generate(GeneratorSpec(family="blobs", n=n, seed=seed,
                                  centers=((0.0, 0.0), (20.0, 0.0)), scales=(1.0, 1.0)))


def test_kmeans_k1_is_one_cluster():
    ds = _two_blobs()
    a = kmeans(ds, KMeansConfig(k=1, seed=0))
    assert a.cluster_count == 1
    assert set(a.labels.tolist()) == {0}


def test_kmeans_two_blobs_perfect():
    ds = _two_blobs()
    a = kmeans(ds, KMeansConfig(k=2, seed=0))
    assert rand_index(ds.labels, a.labels) == 1.0


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    ds = Dataset(points=rng.uniform(0, 10, size=(12, 2)))
    a = kmeans(ds, KMeansConfig(k=12, seed=5))
    assert sorted(a.labels.tolist()) == list(range(12))


def test_kmeans_rejects_k_above_n():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        kmeans(ds, KMeansConfig(k=3))


def test_kmeans_compacts_labels_when_a_cluster_empties():
    # duplicated points can seed two coincident centers; one cluster then
    # stays empty and the surviving labels must still be contiguous from 0
    pts = np.array([[0.0, 0.0]] * 3 + [[10.0, 10.0]] * 3)
    for seed in range(10):
        a = kmeans(Dataset(points=pts), KMeansConfig(k=2, seed=seed))
        labs = set(a.labels.tolist())
        assert labs in ({0}, {0, 1})


def test_kmeans_deterministic_given_seed():
    ds = _two_blobs(seed=8)
    a = kmeans(ds, KMeansConfig(k=4, seed=123))
    b = kmeans(ds, KMeansConfig(k=4, seed=123))
    assert np.array_equal(a.labels, b.labels)


def test_dbscan_all_noise_when_eps_too_small():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
    a = dbscan(ds, DbscanConfig(eps=0.5, min_pts=2))
    assert a.labels.tolist() == [-1, -1, -1]


def test_dbscan_chain_reachability():
    pts = np.column_stack([np.arange(10) * 0.5, np.zeros(10)])
    a = dbscan(Dataset(points=pts), DbscanConfig(eps=0.6, min_pts=2))
    assert a.cluster_count == 1
    assert a.noise_count == 0


def _dbscan_oracle(points, eps, min_pts):
    """Independent check: closure over the eps-graph of core points."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    core = (d <= eps).sum(axis=1) >= min_pts  # closed neighborhood, self included
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if core[i] and core[j] and d[i, j] <= eps:
                adj[i, j] = True
    for _ in range(n):
        adj = adj | (adj @ adj)
    comp = np.full(n, -1)
    cid = 0
    for i in range(n):
        if core[i] and comp[i] == -1:
            comp[np.flatnonzero(adj[i] & core)] = cid
            cid += 1
    return d, core, comp


def test_dbscan_matches_core_closure_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(4, 14))
        pts = rng.uniform(0, 3, size=(n, 2))
        eps = float(rng.uniform(0.3, 1.2))
        min_pts = int(rng.integers(2, 5))
        got = dbscan(Dataset(points=pts), DbscanConfig(eps=eps, min_pts=min_pts)).labels
        d, core, comp = _dbscan_oracle(pts, eps, min_pts)
        # core points: exact partition match (up to renaming)
        for i in range(n):
            for j in range(n):
                if core[i] and core[j]:
                    assert (got[i] == got[j]) == (comp[i] == comp[j])
        for i in range(n):
            if core[i]:
                assert got[i] != -1
            else:
                near_core = [j for j in range(n) if core[j] and d[i, j] <= eps]
                if near_core:  # border point: takes the label of a reaching core
                    assert got[i] in {got[j] for j in near_core}
                else:
                    assert got[i] == -1


def test_dbscan_invariant_under_permutation():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 4, size=(60, 2))
    cfg = DbscanConfig(eps=0.7, min_pts=3)
    base = dbscan(Dataset(points=pts), cfg).labels
    perm = rng.permutation(60)
    permuted = dbscan(Dataset(points=pts[perm]), cfg).labels
    restored = np.empty(60, dtype=int)
    restored[perm] = permuted
    assert rand_index(base, restored) == 1.0


def test_dpeak_single_point():
    a = dpeak(Dataset(points=[[1.0, 1.0]]), DpeakConfig(dc=1.0, k=1))
    assert a.labels.tolist() == [0]


def test_dpeak_two_blobs_perfect():
    ds = _two_blobs()
    a = dpeak(ds, DpeakConfig(dc=2.0, k=2))
    assert rand_index(ds.labels, a.labels) == 1.0


def test_dpeak_k1_single_cluster_on_ring_plus_core():
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 2 * np.pi, 80)
    ring = np.column_stack([3 * np.cos(t), 3 * np.sin(t)])
    core = rng.normal(0, 0.2, size=(40, 2))
    ds = Dataset(points=np.vstack([ring, core]))
    a = dpeak(ds, DpeakConfig(dc=0.5, k=1))
    assert a.cluster_count == 1
    assert a.noise_count == 0


def test_dpeak_delta_of_densest_point():
    ds = _two_blobs(seed=12)
    state = dpeak_state(ds, DpeakConfig(dc=1.5, k=2))
    top = int(state.order[0])
    expected = np.sqrt(((ds.points - ds.points[top]) ** 2).sum(axis=1)).max()
    assert state.delta[top] == expected
    assert (state.delta >= 0).all()


def test_dpeak_rejects_k_above_n():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        dpeak(ds, DpeakConfig(dc=1.0, k=3))


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=0)
    with pytest.raises(ValueError):
        DbscanConfig(eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        DbscanConfig(eps=1.0, min_pts=0)
    with pytest.raises(ValueError):
        DpeakConfig(dc=-1.0, k=1)
    with pytest.raises(ValueError):
        DpeakConfig(dc=1.0, k=0)
    # NaN fails every comparison, so a check written as ``eps <= 0`` lets it through
    with pytest.raises(ValueError, match="eps"):
        DbscanConfig(eps=math.nan, min_pts=2)
    with pytest.raises(ValueError, match="dc"):
        DpeakConfig(dc=math.nan, k=1)

