"""Ball differentiation: merge adjacent balls into clusters.

Two balls are adjacent when the gap between their surfaces is below an
adjustment coefficient tau = min(radius) / (1 + min(overlap count)); the more
a ball already overlaps its neighbours, the stricter the criterion gets.
Clusters are the connected components of the adjacency graph over non-noise
balls.  Singleton (noise) balls sit out of the merge and are attached to the
nearest cluster afterwards or labelled noise.

Only ball centers and radii enter this stage, never point pairs, and only
centres close enough to matter are compared: a grid over the centres yields
candidate pairs in place of all m^2 / 2.  The module counts its distance
evaluations so that budget is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NOISE, BallSet, ClusterAssignment, Dataset, distances
from .division import DivisionConfig, DivisionTrace, generate_balls

_DIST_EVALS = 0


def reset_distance_counter() -> None:
    global _DIST_EVALS
    _DIST_EVALS = 0


def distance_evaluations() -> int:
    """Distance evaluations performed by this module since the last reset.

    One per candidate ball pair and one per (noise point, candidate ball).
    """
    return _DIST_EVALS


def _count(n: int) -> None:
    global _DIST_EVALS
    _DIST_EVALS += n


class _Grid:
    """Centres bucketed into square cells over their (at most) two widest coordinates.

    Projecting onto some coordinates never lengthens a distance, so two
    points closer than ``cell`` lie in the same or in neighbouring cells.
    """

    def __init__(self, centers: np.ndarray, cell: float):
        low = centers.min(axis=0)
        span = centers.max(axis=0) - low
        self.axes = np.argsort(-span, kind="stable")[:2]
        self.origin = low[self.axes]
        # A coarser grid stays exact; at most 2**20 cells a side keeps keys in int64.
        self.cell = max(cell, float(span.max()) / 2 ** 20) or 1.0
        cells = self._cells(centers, np.full(2, 2 ** 21))
        self.limit = cells.max(axis=0) + 1
        self.stride = int(self.limit[1]) + 3
        keys = self._keys(cells)
        self.order = np.argsort(keys, kind="stable")  # ascending ball position within a cell
        self.keys = keys[self.order]

    def _cells(self, points: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Cell coordinates, clipped to [-1, high]; a second column of zeros in 1-d."""
        k = self.axes.size
        scaled = np.floor((points[:, self.axes] - self.origin) / self.cell)
        cells = np.zeros((len(points), 2), dtype=np.int64)
        cells[:, :k] = np.clip(scaled, -1, high[:k])
        return cells

    def _keys(self, cells: np.ndarray) -> np.ndarray:
        return (cells[:, 0] + 1) * self.stride + cells[:, 1] + 1

    def _ranges(self, keys: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions [lo, hi) of every cell ``key + offset``, offsets outermost."""
        wanted = np.concatenate([keys + off for off in offsets])
        return (np.searchsorted(self.keys, wanted, side="left"),
                np.searchsorted(self.keys, wanted, side="right"))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every unordered pair (a, b), a < b, of centres in the same or neighbouring cells."""
        m = self.keys.size
        s = self.stride
        # the cell itself (later positions only) and its four forward neighbours
        lo, hi = self._ranges(self.keys, (1, s - 1, s, s + 1))
        lo = np.concatenate([np.arange(1, m + 1), lo])
        hi = np.concatenate([np.searchsorted(self.keys, self.keys, side="right"), hi])
        rows, flat = _expand(lo, hi)
        a, b = self.order[rows % m], self.order[flat]
        return np.minimum(a, b), np.maximum(a, b)

    def near(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point row, centre position) for every centre in a point's cell or its neighbours."""
        s = self.stride
        keys = self._keys(self._cells(points, self.limit))
        offsets = [dx * s + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        rows, flat = _expand(*self._ranges(keys, offsets))
        return rows % len(points), self.order[flat]


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges [lo[k], hi[k]) as (k, value) for every value."""
    counts = hi - lo
    rows = np.repeat(np.arange(counts.size), counts)
    return rows, np.arange(rows.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def _pairwise_center_distances(ballset: BallSet) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of non-noise balls within reach, (E, 2) ball indices i < j, and their centre distances.

    Overlap needs d_ij < r_i + r_j and adjacency d_ij < r_i + r_j + tau, with
    tau <= min(r_i, r_j); both stay below 3 * r_max.  Centres are bucketed
    into cells of side 4 * r_max, so every such pair is a candidate.  Counts
    one distance evaluation per candidate, then keeps only the pairs that
    could overlap or be adjacent.
    """
    live = np.flatnonzero(~ballset.noise_ball_flags)
    if live.size < 2:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    centers, radii = ballset.centers.take(live, axis=0), ballset.radii[live]
    a, b = _Grid(centers, 4 * radii.max()).pairs()
    _count(a.size)
    diff = centers.take(a, axis=0)
    diff -= centers.take(b, axis=0)  # one (E, d) buffer; a second lives only for this line
    dists = distances(diff, np.zeros(centers.shape[1]))
    # Reach: the gap fl(d - s), s = fl(r_i + r_j), is below min(r_i, r_j).
    # Adjacency needs gap < tau, and tau <= min(r_i, r_j) in floating point
    # too; overlap needs d < s, and then fl(d - s) < 0 <= min(r_i, r_j).
    # So every overlapping and every adjacent pair is kept.
    ra, rb = radii[a], radii[b]
    near = np.flatnonzero(dists - (ra + rb) < np.minimum(ra, rb))
    return np.column_stack((live[a[near]], live[b[near]])), dists[near]


def count_overlaps(ballset: BallSet,
                   _pairs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Number of other non-noise balls strictly overlapping each ball.

    Noise balls neither overlap nor are overlapped; their count is 0.
    """
    pairs, dists = _pairwise_center_distances(ballset) if _pairs is None else _pairs
    radii = ballset.radii
    hit = pairs[dists < radii[pairs[:, 0]] + radii[pairs[:, 1]]]
    return np.bincount(hit.ravel(), minlength=len(ballset))


def tau(r_i, r_j, o_i, o_j):
    """Adjacency slack: the smaller radius, shrunk by prior overlap count.

    Works elementwise on arrays as well as on scalars.
    """
    return np.minimum(r_i, r_j) / (1 + np.minimum(o_i, o_j))


def are_adjacent(ball_i, ball_j, o_i: int, o_j: int) -> bool:
    """True when the surface gap between two balls is below their tau."""
    _count(1)
    gap = float(distances(ball_i.center[None], ball_j.center)[0]) - (ball_i.radius + ball_j.radius)
    return bool(gap < tau(ball_i.radius, ball_j.radius, o_i, o_j))


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Undirected adjacency over non-noise balls.

    ``nodes`` are ball indices; ``edges`` is an (E, 2) array of ball-index
    pairs (i, j) with i < j, so the relation is symmetric by construction
    and self-loop free.
    """

    nodes: np.ndarray
    edges: np.ndarray


def adjacency_graph(ballset: BallSet,
                    _pairs: tuple[np.ndarray, np.ndarray] | None = None) -> AdjacencyGraph:
    """Evaluate the adjacency criterion over the candidate pairs of non-noise balls.

    Requires ballset.overlap_counts to be filled in (two-pass scheme: counts
    first, adjacency second).
    """
    pairs, dists = _pairwise_center_distances(ballset) if _pairs is None else _pairs
    radii, overlaps = ballset.radii, ballset.overlap_counts
    i, j = pairs[:, 0], pairs[:, 1]
    adjacent = dists - (radii[i] + radii[j]) < tau(radii[i], radii[j], overlaps[i], overlaps[j])
    return AdjacencyGraph(nodes=np.flatnonzero(~ballset.noise_ball_flags), edges=pairs[adjacent])


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Per node, the lowest node index of its connected component.

    Min-label hooking of roots over the edges, then pointer jumping until
    every node points at its root; an edge is dropped once both ends agree.
    """
    root = np.arange(n)
    a, b = edges[:, 0], edges[:, 1]
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return root


def merge_adjacent(ballset: BallSet,
                   _pairs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Cluster id per ball: connected components of the adjacency graph.

    Components are numbered 0..K-1 in order of the smallest ball index they
    contain; noise balls get -1.
    """
    ids = np.full(len(ballset), NOISE, dtype=np.int64)
    graph = adjacency_graph(ballset, _pairs)
    root = _components(len(ballset), graph.edges)
    ids[graph.nodes] = np.unique(root[graph.nodes], return_inverse=True)[1]
    return ids


def assign_noise(dataset: Dataset, ballset: BallSet, ball_cluster_ids: np.ndarray) -> ClusterAssignment:
    """Turn ball cluster ids into per-point labels.

    Points of noise balls join the cluster of the nearest non-noise ball
    (nearest by gap: point-to-center distance minus radius, ties to the
    lowest ball index) when that gap is within the mean non-noise radius;
    otherwise they are labelled -1.
    """
    flags = ballset.noise_ball_flags
    labels = np.full(len(dataset), NOISE, dtype=np.int64)
    labels[ballset.order] = np.repeat(np.where(flags, NOISE, ball_cluster_ids), ballset.sizes)
    live = np.flatnonzero(~flags)
    if live.size == 0 or live.size == flags.size:
        return ClusterAssignment(labels=labels)
    centers, radii = ballset.centers.take(live, axis=0), ballset.radii[live]
    mean_radius = float(radii.mean())
    points = ballset.order[np.repeat(flags, ballset.sizes)]
    pts = dataset.points.take(points, axis=0)
    # A winning ball has gap <= mean_radius, so its centre lies within
    # 2 * r_max of the point: inside the point's cell or a neighbour.
    row, ball = _Grid(centers, 4 * radii.max()).near(pts)
    _count(row.size)
    gaps = distances(pts.take(row, axis=0), centers.take(ball, axis=0)) - radii[ball]
    order = np.lexsort((ball, gaps, row))
    row, ball, gaps = row[order], ball[order], gaps[order]
    nearest = np.r_[True, row[1:] != row[:-1]]
    won = nearest & (gaps <= mean_radius)
    labels[points[row[won]]] = ball_cluster_ids[live[ball[won]]]
    return ClusterAssignment(labels=labels)


def cluster(dataset: Dataset, config: DivisionConfig | None = None,
            trace: DivisionTrace | None = None) -> tuple[ClusterAssignment, BallSet]:
    """Full granular-ball clustering: divide, count overlaps, merge, label.

    Takes no algorithmic parameters; ``config`` only carries the structural
    constants of the division loop.
    """
    ballset = generate_balls(dataset, config, trace)
    # one set of candidate pairs serves both the overlap and adjacency passes
    pairs = _pairwise_center_distances(ballset)
    ballset.overlap_counts = count_overlaps(ballset, pairs)
    ids = merge_adjacent(ballset, pairs)
    assignment = assign_noise(dataset, ballset, ids)
    return assignment, ballset
