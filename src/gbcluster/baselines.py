"""Reference clustering baselines: K-Means (Lloyd), DBSCAN, and density-peak
clustering (DPeak).

All three are deterministic given their configs and use straightforward
row-wise O(n^2) neighbor computation, so benchmark timings reflect each
algorithm's structure rather than index tricks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NOISE, ClusterAssignment, Dataset


KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class DbscanConfig:
    eps: float
    min_pts: int

    def __post_init__(self):
        if not self.eps > 0:  # NaN fails it
            raise ValueError("eps must be > 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass(frozen=True)
class DpeakConfig:
    dc: float
    k: int

    def __post_init__(self):
        if not self.dc > 0:  # NaN fails it
            raise ValueError("dc must be > 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True, eq=False)
class DpeakState:
    """Per-point density-peak quantities.

    rho:   neighbor count within dc (cutoff kernel, excluding the point)
    delta: distance to the nearest denser point; the densest point gets its
           maximum distance to any other point instead
    gamma: rho * delta, the center-ranking score
    """

    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    nearest_denser: np.ndarray
    order: np.ndarray  # point indices, densest first (ties by lower index)


def _row_dists(points: np.ndarray, i: int) -> np.ndarray:
    return np.sqrt(((points - points[i]) ** 2).sum(axis=1))


def kmeans(dataset: Dataset, config: KMeansConfig) -> ClusterAssignment:
    """Lloyd iterations from k distinct seeded starting points.

    Stops when every center moves less than KMEANS_TOL, or after
    KMEANS_MAX_ITERS.  A cluster that empties keeps its previous center;
    label ids are compacted at the end so they stay contiguous.
    """
    n = len(dataset)
    if config.k > n:
        raise ValueError(f"k={config.k} exceeds dataset size {n}")
    pts = dataset.points
    rng = np.random.default_rng(config.seed)
    centers = pts[rng.choice(n, size=config.k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        dists = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        labels = np.argmin(dists, axis=1)
        shift = 0.0
        for j in range(config.k):
            mask = labels == j
            if mask.any():
                new_c = pts[mask].mean(axis=0)
                shift = max(shift, float(np.sqrt(((new_c - centers[j]) ** 2).sum())))
                centers[j] = new_c
        if shift < KMEANS_TOL:
            break
    return ClusterAssignment(labels=np.unique(labels, return_inverse=True)[1])


def dbscan(dataset: Dataset, config: DbscanConfig) -> ClusterAssignment:
    """Classic core/border/noise DBSCAN.

    A point is core when its closed eps-neighborhood (itself included) holds
    at least min_pts points.  Clusters are numbered by discovery order,
    scanning from the lowest point index; unreachable points stay -1.
    """
    n = len(dataset)
    pts = dataset.points
    neighbors = [np.flatnonzero(_row_dists(pts, i) <= config.eps) for i in range(n)]
    core = np.array([nb.size >= config.min_pts for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster_id = 0
    for start in range(n):
        if labels[start] != NOISE or not core[start]:
            continue
        labels[start] = cluster_id
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for q in neighbors[p]:
                q = int(q)
                if labels[q] == NOISE:
                    labels[q] = cluster_id
                    if core[q]:
                        frontier.append(q)
        cluster_id += 1
    return ClusterAssignment(labels=labels)


def dpeak_state(dataset: Dataset, config: DpeakConfig) -> DpeakState:
    """Compute rho/delta/gamma for density-peak clustering.

    Density ties break toward the lower point index, which fixes the
    descending-density order and makes delta deterministic.
    """
    n = len(dataset)
    pts = dataset.points
    rho = np.empty(n, dtype=np.int64)
    for i in range(n):
        rho[i] = int((_row_dists(pts, i) < config.dc).sum()) - 1  # drop self
    order = np.argsort(-rho, kind="stable")
    delta = np.zeros(n)
    nearest_denser = np.arange(n)
    top = int(order[0])
    delta[top] = float(_row_dists(pts, top).max()) if n > 1 else 0.0
    for pos in range(1, n):
        i = int(order[pos])
        denser = order[:pos]
        d = np.sqrt(((pts[denser] - pts[i]) ** 2).sum(axis=1))
        j = int(np.argmin(d))
        delta[i] = float(d[j])
        nearest_denser[i] = int(denser[j])
    return DpeakState(rho=rho, delta=delta, gamma=rho * delta,
                      nearest_denser=nearest_denser, order=order)


def dpeak(dataset: Dataset, config: DpeakConfig) -> ClusterAssignment:
    """Density-peak clustering with the k largest gamma scores as centers.

    Every non-center point inherits the label of its nearest denser point in
    one descending-density sweep.
    """
    n = len(dataset)
    if config.k > n:
        raise ValueError(f"k={config.k} exceeds dataset size {n}")
    state = dpeak_state(dataset, config)
    by_gamma = np.lexsort((np.arange(n), -state.gamma))
    centers = by_gamma[: config.k]
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[centers] = np.arange(config.k)
    top = int(state.order[0])
    if labels[top] == NOISE:
        # pathological: densest point not a peak; attach it to the nearest center
        d = np.sqrt(((dataset.points[centers] - dataset.points[top]) ** 2).sum(axis=1))
        labels[top] = labels[centers[int(np.argmin(d))]]
    for pos in range(1, n):
        i = int(state.order[pos])
        if labels[i] == NOISE:
            labels[i] = labels[state.nearest_denser[i]]
    return ClusterAssignment(labels=labels)

