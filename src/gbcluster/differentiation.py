"""Ball differentiation: merge adjacent balls into clusters.

Two balls are adjacent when the gap between their surfaces is below an
adjustment coefficient tau = min(radius) / (1 + min(overlap count)); the more
a ball already overlaps its neighbours, the stricter the criterion gets.
Clusters are the connected components of the adjacency graph over non-noise
balls.  Singleton (noise) balls sit out of the merge and are attached to the
nearest cluster afterwards or labelled noise.

Only ball centers and radii enter this stage, never point pairs, and only
centres close enough to matter are compared.  The centres are sorted into
strips, each strip is cut into kd leaves with bounding boxes, and each
leaf meets the leaves near it, in its own strip and the next, as small
dense tiles of squared distances; leaf pairs whose boxes lie out of reach
compute nothing.  A prefilter on the tiles spares the square root for all
but the pairs near enough to overlap or be adjacent.  This one sweep counts
the overlaps and joins each overlapping pair as it finds it, since such a
pair is adjacent whatever tau is; it keeps only the other pairs within
reach, for tau to decide once the counts are complete.  Noise balls ride the
same sweep, reaching as far as the mean live radius, and it keeps the live
balls near each of them.  The module counts its distance evaluations so
that budget is checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NOISE, BallSet, ClusterAssignment, Dataset, _runs, squared_distances
from .division import DivisionTrace, generate_balls

_DIST_EVALS = 0


def distance_evaluations() -> int:
    """Distance evaluations performed by this module so far.

    One per squared centre distance a tile computes, each pair counted at
    most once.  The count only grows: callers take the difference around
    the calls they measure.
    """
    return _DIST_EVALS


def _count(n: int) -> None:
    global _DIST_EVALS
    _DIST_EVALS += int(n)


# Entries of one (B, W) tile of squared distances: 256 KB of float64.
_TILE = 2 ** 15
# Centres per strip, on average, at the least.
_FILL = 64


class _Strips:
    """Ball centres sorted into strips along their widest coordinate, then by
    their second widest (in 1-d, by the same coordinate).

    Two points less than 3 * r_max apart lie in the same or in neighbouring
    strips, and within ``reach`` = 4 * r_max of each other on the second
    coordinate: strips are at least ``reach`` wide, and the quarter of margin
    is far more than rounding takes.  Where 4 * r_max would cut the span of
    the centres into more than m / 64 strips, strips are span * 64 / m wide,
    so that a strip holds enough centres to fill its tiles.

    Strips along raw coordinates cannot separate blobs in many dimensions,
    so the pair pass cuts each strip into kd leaves (``_leaves``) and skips
    the leaf pairs whose bounding boxes are out of reach.  Box gaps need no
    slack of their own.  For leaves A and B, with boxes [lo, hi] and largest
    radii r_A and r_B, the gap on coordinate k is gap_k = max(0, fl(lo_B,k -
    hi_A,k), fl(lo_A,k - hi_B,k)), and gap2 adds the squares in coordinate
    order, as ``squared_distances`` does.  For a member i of A and j of B,
    lo_B,k - hi_A,k <= c_j,k - c_i,k exactly, and rounding is monotone, so
    fl(lo_B,k - hi_A,k) <= fl(c_j,k - c_i,k); the other side is alike.  So
    each term of gap2 is at most the matching term of acc_ij, every partial
    sum too (rounded addition is monotone), and gap2 <= acc_ij.  Also
    r_i <= r_A and r_j <= r_B give lim_ij = fl(fl(r_i + r_j) + min(r_i,
    r_j)) <= lim_AB, rounded as well, and ``_squared_bound`` is monotone.  A
    leaf pair with gap2 > _squared_bound(lim_AB) therefore holds no entry
    with acc_ij <= _squared_bound(lim_ij), which every pair within reach
    has, and skipping it drops no pair within reach.
    """

    def __init__(self, centers: np.ndarray, r_max: float):
        low = centers.min(axis=0)
        span = centers.max(axis=0) - low
        self.axes = np.argsort(-span, kind="stable")[:2]
        self.reach = 4 * r_max
        width = max(self.reach, float(span.max()) * _FILL / len(centers)) or 1.0
        strip = np.floor((centers[:, self.axes[0]] - low[self.axes[0]]) / width).astype(np.int64)
        self.order = np.lexsort((centers[:, self.axes[-1]], strip))
        self.centers = centers.take(self.order, axis=0).T.copy()  # (d, m), coordinates first
        strip = strip[self.order]
        starts = np.flatnonzero(np.diff(strip, prepend=strip[:1] - 1))  # of the runs of one strip
        self.bounds = np.append(starts, strip.size)


def _squared_bound(lim: np.ndarray) -> np.ndarray:
    """``max(lim**2, 2**-960) * (1 + 2**-40)``, in place: a prefilter on squared distances.

    lim = fl(a + b) bounds an exact test on dist = fl(sqrt(acc)), which keeps
    a distance when fl(dist - a) < b (or <= b).  Rounding is monotone, so a
    kept distance has dist - a <= b + ulp(b) / 2, and from there
    acc <= fl(lim**2) * (1 + 7u), u = 2**-53, after the roundings of lim, of
    the square root and of lim**2, as long as lim**2 is a normal number.
    The factor 1 + 2**-40 covers that with room to spare (the tests hold a
    pair that needs it).  Below 2**-960 the rounding of lim**2 is no longer
    relative (subnormals, or 0), and the floor makes the bound hold there
    without an argument about subnormals.  Where lim**2 overflows to inf
    every acc passes and the exact test decides.  So ``acc <=
    _squared_bound(lim)`` passes every distance the exact test keeps, and
    only those that pass need a square root.
    """
    np.square(lim, out=lim)
    np.maximum(lim, 2.0 ** -960, out=lim)
    lim *= 1 + 2.0 ** -40
    return lim


def _leaves(c: np.ndarray, bounds: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kd bisection (Bentley 1975) of the runs [bounds[k], bounds[k + 1]) of
    the columns of c (d, m): a run of more than limit[k] columns is stably
    sorted along its widest coordinate and halved at its middle, and so are
    its halves, until no run is larger.  Returns the new order of the
    columns and the bounds of the leaves."""
    order = np.arange(c.shape[1])
    limit = np.repeat(limit, np.diff(bounds))  # per column, its run's
    while True:
        sizes = np.diff(bounds)
        big = sizes > limit[bounds[:-1]]
        if not big.any():
            return order, bounds
        cols = c.take(order, axis=1)
        span = np.maximum.reduceat(cols, bounds[:-1], axis=1)
        span -= np.minimum.reduceat(cols, bounds[:-1], axis=1)
        run = np.repeat(np.arange(sizes.size), sizes)
        key = cols[span.argmax(axis=0)[run], np.arange(run.size)]
        key[~big[run]] = 0.0  # runs of a leaf keep their order
        order = order.take(np.lexsort((key, run)))
        bounds = np.sort(np.append(bounds, bounds[:-1][big] + sizes[big] // 2))


@dataclass(frozen=True, eq=False)
class _Sweep:
    """What the geometry sweep leaves.

    ``counts`` is each ball's overlap count, and ``root`` the lowest ball
    index that chains of overlapping pairs join it to.  ``kept`` holds the
    pairs within reach that do not overlap, a batch at a time: (k, 2) ball
    indices i < j, and their gaps fl(d - fl(r_i + r_j)), which tau decides.
    ``noise`` holds (noise ball, gap, live ball) for every noise ball and
    live ball whose gap fl(d - r_live) is within the mean live radius.
    """

    counts: np.ndarray
    root: np.ndarray
    kept: list[tuple[np.ndarray, np.ndarray]]
    noise: tuple[np.ndarray, np.ndarray, np.ndarray]


def _hook(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of a[k] and b[k] for every k, in place.

    root maps every node to the lowest node of its component, before and
    after: the larger root of each edge's ends is hooked to the smaller (the
    least of them, where several edges hook one root), then pointers jump
    until every node points at its root; an edge is dropped once its ends
    agree.  A round costs O(m + edges), so callers gather m edges or more.
    """
    ra, rb = root[a], root[b]
    while True:
        apart = np.flatnonzero(ra != rb)
        if not apart.size:
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped
        ra, rb = root[a], root[b]


def _pairwise_center_distances(ballset: BallSet) -> _Sweep:
    """The geometry sweep over the balls: the overlap counts of the non-noise
    balls, the components that overlaps join, the other pairs within reach,
    and the live balls near each noise ball.

    Overlap needs d_ij < r_i + r_j and adjacency d_ij < r_i + r_j + tau, with
    tau <= min(r_i, r_j); both stay below 3 * r_max.  The centres are swept in
    strips (see ``_Strips``), and each strip is cut into kd leaves.  A leaf
    meets the leaves of its own strip from itself on, and those of the next
    strip, whose boxes come near enough; each run of consecutive leaves it
    meets, cut to ``reach`` on the second coordinate, is one dense tile of
    squared distances.  Counts one distance evaluation per tile entry above
    the diagonal; only the entries the prefilter passes get a square root
    and the exact test.

    The entries held go through the exact test a batch at a time.  A pair
    overlaps when its gap g = fl(d - fl(r_i + r_j)) is below 0, which is
    exactly d < r_i + r_j.  It is added to both balls' counts and joined at
    once, because tau >= 0 > g makes it adjacent whatever the counts.  A pair
    with 0 <= g < min(r_i, r_j) is kept with its gap for tau to decide.  So
    the sweep holds the centres, a count and a root per ball, the kept pairs,
    the leaf pairs of a chunk of row leaves and about one batch of entries,
    and nothing per overlapping pair.

    The prefilter has one bound per tile row: acc_ij <=
    _squared_bound(lim_i), lim_i = fl(fl(r_i + R) + R), where R is the
    largest radius of the tile's columns.  A pair within reach has acc_ij
    <= _squared_bound(lim_ij), lim_ij = fl(fl(r_i + r_j) + min(r_i, r_j))
    (see ``_squared_bound``).  As r_j <= R and min(r_i, r_j) <= R, and
    rounding is monotone, lim_ij <= lim_i, so the row's bound passes every
    entry that the bound of its own pair would; the exact test then
    decides, as before.

    Noise balls take the mean live radius r_mean as their radius in the
    strips, the leaf boxes and the prefilter, once any ball is live.  A noise
    ball and a live ball are near when fl(d - r_live) <= r_mean, whose
    bound fl(r_live + r_mean) is at most the lim_ij above with r_i = r_mean,
    and r_mean <= r_max; so the strips and bounds pass every near pair.  In
    the exact test a noise ball's radius is NaN, which fails the overlap and
    reach tests of every pair it is in and marks its gaps.
    """
    m = len(ballset)
    counts, root = np.zeros(m, dtype=np.int64), np.arange(m)
    alone = ballset.noise_ball_flags
    live_radii = ballset.radii[~alone]
    if not live_radii.size:
        return _Sweep(counts, root, [], (root[:0], np.empty(0), root[:0]))
    r_mean = float(live_radii.mean())
    strips = _Strips(ballset.centers, float(live_radii.max()))
    # a strip's rows meet its own columns and the next strip's (when that one
    # is not adjacent, the leaf boxes are out of reach); a leaf holds a tile's
    # worth of rows against those, or _FILL at the least
    reach_end = np.append(strips.bounds[2:], strips.bounds[-1])
    order, bounds = _leaves(strips.centers, strips.bounds,
                            np.maximum(_FILL, _TILE // (reach_end - strips.bounds[:-1])))
    c, w, ax = strips.centers.take(order, axis=1), strips.reach, strips.axes[-1]
    ball = strips.order[order]
    r = np.where(alone, np.nan, ballset.radii)[ball]
    r_bound = np.where(alone, r_mean, ballset.radii)[ball]
    starts = bounds[:-1]
    lo, hi = np.minimum.reduceat(c, starts, axis=1), np.maximum.reduceat(c, starts, axis=1)
    r_leaf = np.maximum.reduceat(r_bound, starts)
    strip = np.searchsorted(strips.bounds, starts, side="right") - 1
    end = np.searchsorted(bounds, reach_end[strip])  # past the last leaf a leaf can meet

    def tiles(l0, l1):
        """Rows and columns, [row0, row1) x [col0, col1), of the tiles of the row
        leaves [l0, l1)."""
        # every leaf A against the leaves B from A up to the end of the next strip
        count = end[l0:l1] - np.arange(l0, l1)
        a = np.repeat(np.arange(l0, l1), count)
        b = _runs(np.arange(l0, l1), count)
        gap = None
        for lo_k, hi_k in zip(lo, hi):
            g = np.maximum(lo_k[b] - hi_k[a], lo_k[a] - hi_k[b])
            np.maximum(g, 0.0, out=g)
            g *= g
            gap = g if gap is None else np.add(gap, g, out=gap)
        lim = r_leaf[a] + r_leaf[b]
        lim += np.minimum(r_leaf[a], r_leaf[b])
        meet = gap <= _squared_bound(lim)
        joined = meet[1:] & meet[:-1] & (a[1:] == a[:-1])  # entry t + 1 extends the run of entry t
        first = np.flatnonzero(meet & ~np.append(False, joined))
        last = np.flatnonzero(meet & ~np.append(joined, False))
        # each run of met leaves is a tile, its columns cut to reach on the second coordinate
        leaf, col0, col1 = a[first], bounds[b[first]], bounds[b[last] + 1]
        width = col1 - col0
        col = _runs(col0, width)
        ys = c[ax][col]
        inside = (ys >= np.repeat(lo[ax][leaf] - w, width)) & (ys <= np.repeat(hi[ax][leaf] + w, width))
        tile_start = np.cumsum(width) - width
        col0 = np.minimum.reduceat(np.where(inside, col, c.shape[1]), tile_start)
        col1 = np.maximum.reduceat(np.where(inside, col, -1), tile_start) + 1
        leaf, col0, col1 = leaf[col0 < col1], col0[col0 < col1], col1[col0 < col1]
        row0, row1 = starts[leaf], bounds[leaf + 1]
        rows = row1 - row0
        _count((rows * (col1 - col0) - (col0 == row0) * rows * (rows + 1) // 2).sum())
        # a tile of more than _TILE entries goes in pieces of _TILE // rows columns
        step = np.maximum(1, _TILE // rows)
        pieces = -(-(col1 - col0) // step)
        k = _runs(np.zeros_like(pieces), pieces)  # piece of its tile
        row0, row1, col0, col1, step = (np.repeat(v, pieces) for v in (row0, row1, col0, col1, step))
        col0 += k * step
        col1 = np.minimum(col1, col0 + step)
        return row0.tolist(), row1.tolist(), col0.tolist(), col1.tolist()

    kept, held, joins = [], [], []  # every leaf meets itself, so some tile is held
    near_noise = [(root[:0], np.empty(0), root[:0])]

    def join():
        """Count and hook the overlapping pairs gathered so far."""
        a, b = (np.concatenate(part) for part in zip(*joins))
        joins.clear()
        counts[:] += np.bincount(a, minlength=m) + np.bincount(b, minlength=m)
        _hook(root, a, b)

    def keep():
        """The exact test on the held entries of the tiles: overlapping pairs
        go to be counted and joined; the other pairs within reach are kept,
        and so are the near pairs of a noise and a live ball."""
        i, j, acc = (np.concatenate(part) for part in zip(*held))
        held.clear()
        ri, rj = r[i], r[j]
        dist = np.sqrt(acc, out=acc)
        gap = ri + rj
        np.subtract(dist, gap, out=gap)
        # Reach: the gap is below min(r_i, r_j).  Adjacency needs gap < tau, and
        # tau <= min(r_i, r_j) in floating point too; overlap needs gap < 0.  A
        # leaf's own tile also holds each pair below the diagonal; j > i takes
        # it once.
        upper = j > i
        hit = np.flatnonzero(upper & (gap < 0))
        joins.append((ball[i[hit]], ball[j[hit]]))
        # a NaN gap has a noise ball in its pair; the live ball of the pair,
        # if one is, is near when fl(d - r_live) <= r_mean
        one = np.flatnonzero(np.isnan(gap))
        one = one[upper[one] & (np.isnan(ri[one]) != np.isnan(rj[one]))]
        swap = np.isnan(rj[one])
        noise, live = np.where(swap, j[one], i[one]), np.where(swap, i[one], j[one])
        d = dist[one] - r[live]
        close = d <= r_mean
        near_noise.append((ball[noise[close]], d[close], ball[live[close]]))
        near = np.flatnonzero(upper & (gap >= 0) & (gap < np.minimum(ri, rj)))
        a, b = ball[i[near]], ball[j[near]]
        kept.append((np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1), gap[near]))

    # The row leaves go in chunks that reach about _TILE columns in all, so
    # that a chunk's leaf pairs and column lists take O(m + _TILE) memory.
    span = reach_end[strip] - starts
    chunk = (np.cumsum(span) - span) // _TILE
    edges = np.append(np.flatnonzero(np.diff(chunk, prepend=-1)), starts.size).tolist()
    size = 0
    for a0, a1, c0, c1 in (t for l0, l1 in zip(edges[:-1], edges[1:]) for t in zip(*tiles(l0, l1))):
        acc = squared_distances(c[:, a0:a1, None], c[:, None, c0:c1])
        r_col = r_bound[c0:c1].max()
        lim = r_bound[a0:a1] + r_col
        lim += r_col
        at = np.flatnonzero(acc <= _squared_bound(lim)[:, None])
        if size + at.size > _TILE:  # a batch holds _TILE entries at the most, as a tile does
            keep()
            size = 0
            # a round of hooking costs O(m), so overlapping pairs wait until there are m
            if sum(a.size for a, _ in joins) >= m:
                join()
        i, j = np.divmod(at, c1 - c0)
        i += a0
        j += c0
        held.append((i, j, acc.take(at)))
        size += at.size
    keep()
    join()
    return _Sweep(counts, root, kept, tuple(np.concatenate(part) for part in zip(*near_noise)))


def count_overlaps(ballset: BallSet, sweep: _Sweep) -> np.ndarray:
    """Number of other non-noise balls strictly overlapping each ball, from
    the sweep of ballset.

    Noise balls neither overlap nor are overlapped; their count is 0.
    """
    return sweep.counts


def tau(r_i, r_j, o_i, o_j):
    """Adjacency slack: the smaller radius, shrunk by prior overlap count.

    Works elementwise on arrays as well as on scalars.
    """
    return np.minimum(r_i, r_j) / (1 + np.minimum(o_i, o_j))


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Adjacency over non-noise balls, less the pairs that overlap.

    ``nodes`` are ball indices; ``edges`` is an (E, 2) array of ball-index
    pairs (i, j) with i < j, so the relation is symmetric by construction
    and self-loop free.
    """

    nodes: np.ndarray
    edges: np.ndarray


def adjacency_graph(ballset: BallSet, sweep: _Sweep) -> AdjacencyGraph:
    """The adjacent pairs of non-noise balls that do not overlap: the pairs
    the sweep kept whose gap is below tau.

    An overlapping pair is adjacent whatever the overlap counts, and the
    sweep has joined it already, so it is not among the edges.  Requires
    ballset.overlap_counts to be filled in (two-pass scheme: counts first,
    adjacency second).
    """
    radii, overlaps = ballset.radii, ballset.overlap_counts
    edges = [np.empty((0, 2), dtype=np.int64)]
    for pairs, gaps in sweep.kept:  # a batch at a time bounds the temporaries
        i, j = pairs[:, 0], pairs[:, 1]
        edges.append(pairs[gaps < tau(radii[i], radii[j], overlaps[i], overlaps[j])])
    return AdjacencyGraph(nodes=np.flatnonzero(~ballset.noise_ball_flags), edges=np.concatenate(edges))


def merge_adjacent(ballset: BallSet, sweep: _Sweep) -> np.ndarray:
    """Cluster id per ball: connected components of the adjacency graph.

    The edges tau accepts are hooked into the components that the sweep's
    overlapping pairs joined.  Components are numbered 0..K-1 in order of
    the smallest ball index they contain; noise balls get -1.
    """
    graph = adjacency_graph(ballset, sweep)
    root = sweep.root.copy()
    _hook(root, graph.edges[:, 0], graph.edges[:, 1])
    ids = np.full(len(ballset), NOISE, dtype=np.int64)
    ids[graph.nodes] = np.unique(root[graph.nodes], return_inverse=True)[1]
    return ids


def assign_noise(dataset: Dataset, ballset: BallSet, ball_cluster_ids: np.ndarray,
                 sweep: _Sweep) -> ClusterAssignment:
    """Turn ball cluster ids into per-point labels.

    Noise balls, each of one point, join the cluster of the nearest non-noise
    ball (nearest by gap: centre distance minus radius, ties to the lowest
    ball index) when that gap is within the mean non-noise radius; otherwise
    their points are labelled -1.  The sweep of ballset finds the candidates,
    measured from the noise balls' centres, which are their points.
    """
    flags = ballset.noise_ball_flags
    noise, gaps, ball = sweep.noise
    order = np.lexsort((ball, gaps, noise))
    first = order[np.diff(noise[order], prepend=-1) != 0]  # the nearest to every noise ball
    ids = np.where(flags, NOISE, ball_cluster_ids)
    ids[noise[first]] = ball_cluster_ids[ball[first]]
    labels = np.full(len(dataset), NOISE, dtype=np.int64)
    labels[ballset.order] = np.repeat(ids, ballset.sizes)
    return ClusterAssignment(labels=labels)


def cluster(dataset: Dataset, trace: DivisionTrace | None = None) -> tuple[ClusterAssignment, BallSet]:
    """Full granular-ball clustering: divide, count overlaps, merge, label.

    Takes no algorithmic parameters.
    """
    # Squared distances overflow past coordinates of about 2**511 and vanish
    # below 2**-511: points beyond [2**-256, 2**256] are clustered scaled by
    # a power of two, which is exact, and the geometry is scaled back.
    top = max(float(dataset.points.max()), -float(dataset.points.min()))
    exp = math.frexp(top)[1] if top > 2.0 ** 256 or 0 < top < 2.0 ** -256 else 0
    if exp:
        dataset = Dataset(points=np.ldexp(dataset.points, -exp))
    ballset = generate_balls(dataset, trace)
    # one sweep serves the overlap counts, the merge and the noise balls,
    # whose centres are their points
    sweep = _pairwise_center_distances(ballset)
    ballset.overlap_counts = count_overlaps(ballset, sweep)
    ids = merge_adjacent(ballset, sweep)
    assignment = assign_noise(dataset, ballset, ids, sweep)
    if exp:
        with np.errstate(over="ignore"):  # a radius or distance sum past the float range is inf
            ballset.centers, ballset.radii, ballset.sum_radius = (
                np.ldexp(a, exp) for a in (ballset.centers, ballset.radii, ballset.sum_radius))
    return assignment, ballset
