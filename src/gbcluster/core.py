"""Core types and the primitive ball computations.

A granular ball summarizes a group of points by the mean of its members
(the center) and the maximum member-to-center distance (the radius).  Ball
quality is the average member-to-center distance: the smaller, the tighter.
All distances are Euclidean (L2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Label given to points not assigned to any cluster.
NOISE = -1


@dataclass(frozen=True, eq=False)
class Dataset:
    """A fixed set of d-dimensional points with optional ground-truth labels.

    ``points`` is coerced to a float64 array of shape (n, d) with n >= 1;
    every coordinate must be finite.  ``labels``, when given, holds one
    integer per point.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("points must form a non-empty (n, d) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must contain only finite coordinates")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must have exactly one entry per point")
            object.__setattr__(self, "labels", lab)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class GranularBall:
    """A ball over a subset of dataset points.

    members:      sorted array of point indices (never empty)
    center:       arithmetic mean of the member points
    radius:       maximum member-to-center distance
    sum_radius:   sum of member-to-center distances
    avg_distance: sum_radius / member count (the quality measure)
    """

    members: np.ndarray
    center: np.ndarray
    radius: float
    sum_radius: float
    avg_distance: float

    @property
    def size(self) -> int:
        return self.members.size

    @classmethod
    def from_fit(cls, members, center, radius, sum_radius) -> GranularBall:
        """A ball from a fit's values; ``avg_distance`` is sum_radius / size."""
        sum_radius = float(sum_radius)
        return cls(members=members, center=center, radius=float(radius),
                   sum_radius=sum_radius, avg_distance=sum_radius / members.size)


@dataclass(eq=False)
class BallSet:
    """The final partition of a dataset into balls, as arrays.

    ``order`` is a permutation of the point indices in which every ball is a
    contiguous slice, ball i's members ``order[starts[i]:starts[i] +
    sizes[i]]`` in ascending order; ``starts`` is the exclusive cumsum of
    ``sizes``.  Row i of ``centers``, ``radii`` and ``sum_radius`` is ball i's
    geometry.  ``overlap_counts[i]`` is the number of other non-noise balls
    whose region intersects ball i (zero until the differentiation stage
    fills it in).  ``noise_ball_flags[i]`` marks single-point balls, which sit
    out of the merging stage.
    """

    order: np.ndarray
    sizes: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    sum_radius: np.ndarray
    overlap_counts: np.ndarray | None = None
    noise_ball_flags: np.ndarray | None = None

    def __post_init__(self):
        if self.overlap_counts is None:
            self.overlap_counts = np.zeros(len(self), dtype=np.int64)
        if self.noise_ball_flags is None:
            self.noise_ball_flags = self.sizes == 1

    @classmethod
    def from_balls(cls, balls: Sequence[GranularBall], overlap_counts=None,
                   noise_ball_flags=None) -> BallSet:
        """A ball set laid out from ball objects, members in the given order."""
        return cls(order=np.concatenate([b.members for b in balls]).astype(np.int64),
                   sizes=np.array([b.size for b in balls], dtype=np.int64),
                   centers=np.array([b.center for b in balls], dtype=np.float64),
                   radii=np.array([b.radius for b in balls], dtype=np.float64),
                   sum_radius=np.array([b.sum_radius for b in balls], dtype=np.float64),
                   overlap_counts=overlap_counts, noise_ball_flags=noise_ball_flags)

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    @property
    def balls(self) -> list[GranularBall]:
        """Read-only ball views; members are slices of ``order``."""
        members = np.split(self.order, np.cumsum(self.sizes)[:-1])
        return [GranularBall.from_fit(mem, c, r, s) for mem, c, r, s in
                zip(members, self.centers, self.radii, self.sum_radius)]

    def __len__(self) -> int:
        return self.sizes.size


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Per-point cluster labels: -1 marks noise, clusters are 0..K-1."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", lab)
        # K contiguous ids need K <= n, which also keeps the bincount within n + 1
        if lab.size and (lab.min() < NOISE or lab.max() >= lab.size
                         or not np.bincount(lab + 1)[1:].all()):
            raise ValueError("cluster labels must be contiguous from 0")

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max(initial=NOISE)) + 1

    @property
    def noise_count(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))

    def __len__(self) -> int:
        return self.labels.size


def segments(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start of each segment of a concatenation, and the segment of each element."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)


def segment_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``x[s:e].sum()`` of every segment, bit for bit.

    numpy sums a contiguous float64 run pairwise: up to 128 items in 8
    interleaved lanes over the leading multiple of 8, combined in a fixed
    tree, then the tail in order from there (fewer than 8 items: in order
    from 0).  Longer runs split in halves, and are summed one by one here.
    """
    starts, seg = segments(sizes)
    local = np.arange(x.size) - starts[seg]
    lead = sizes & ~7
    in_lanes = local < lead[seg]
    # (an empty bincount is int64 even with weights)
    lanes = np.bincount(seg[in_lanes] * 8 + (local[in_lanes] & 7), weights=x[in_lanes],
                        minlength=8 * sizes.size).astype(np.float64).reshape(-1, 8)
    out = ((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])) + \
          ((lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7]))
    for t in range(7):
        tail = sizes - lead > t
        out[tail] += x[starts[tail] + lead[tail] + t]
    for i in np.flatnonzero(sizes > 128):
        out[i] = x[starts[i]:starts[i] + sizes[i]].sum()
    return out


def squared_distances(pts: np.ndarray, to: np.ndarray) -> np.ndarray:
    """``((pts - to) ** 2).sum(axis=-1)``, bit for bit; pts and to broadcast.

    Rows (n, d) against (d,) or (n, d) give n sums; a tile (B, 1, d) against
    (1, W, d) gives a (B, W) plane.  numpy sums up to 128 terms in 8
    interleaved lanes over the leading multiple of 8, combined in a fixed
    tree, then the rest in order (fewer than 8: all in order).  Adding the
    squared columns in that order is several times faster than ``.sum`` on
    narrow rows and on tiles, whose columns are short.  Wider rows and more
    than 128 columns keep ``.sum``, a block of about 4 MB at a time.
    """
    d = pts.shape[-1]
    shape = np.broadcast_shapes(pts.shape, to.shape)

    def square(j):
        col = pts[..., j] - to[..., j]
        return np.square(col, out=col)

    if d < 8:
        acc = square(0)
        for j in range(1, d):
            acc += square(j)
        return acc
    tile = math.prod(shape[:-1]) > max(math.prod(pts.shape[:-1]), math.prod(to.shape[:-1]))
    if tile and d <= 128:
        lead = d & ~7
        lanes = [square(j) for j in range(8)]
        for i in range(8, lead, 8):
            for j in range(8):
                lanes[j] += square(i + j)
        for gap in (1, 2, 4):  # ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7))
            for j in range(0, 8, 2 * gap):
                lanes[j] += lanes[j + gap]
        acc = lanes[0]
        for j in range(lead, d):
            acc += square(j)
        return acc
    pts, to = np.broadcast_to(pts, shape), np.broadcast_to(to, shape)
    out = np.empty(shape[:-1])
    step = max(1, 2 ** 19 // max(1, math.prod(shape[1:])))
    for s in range(0, shape[0], step):
        diff = pts[s:s + step] - to[s:s + step]
        out[s:s + step] = np.square(diff, out=diff).sum(axis=-1)
    return out


def distances(pts: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Euclidean distances, ``np.sqrt(squared_distances(pts, to))``.

    The one distance kernel of the package: division (member to centre), the
    geometry pass (centre to centre) and noise attachment (point to centre)
    all call it, on rows or on tiles.
    """
    acc = squared_distances(pts, to)
    return np.sqrt(acc, out=acc)


def fit_segments(pts: np.ndarray, sizes: np.ndarray):
    """Fit one ball to every segment of rows of pts, members in ascending index order.

    Returns the centres (k, d), each row's distance to its centre, and the
    radii and distance sums (k,), bit-identical to fitting each ball alone:
    with d >= 2 numpy's mean sums the rows in order, which ``bincount``
    repeats per column, and a single column is summed pairwise.
    """
    starts, seg = segments(sizes)
    if pts.shape[1] == 1:
        sums = segment_sums(pts[:, 0], sizes)[:, None]
    else:
        sums = np.column_stack([np.bincount(seg, weights=col, minlength=sizes.size)
                                for col in pts.T])
    centers = sums / sizes[:, None]
    dists = distances(pts, np.repeat(centers, sizes, axis=0))
    return centers, dists, np.maximum.reduceat(dists, starts), segment_sums(dists, sizes)


def first_argmax(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Position in x of the first maximum of every segment."""
    starts, seg = segments(sizes)
    top = np.maximum.reduceat(x, starts)
    return np.minimum.reduceat(np.where(x == top[seg], np.arange(x.size), x.size), starts)


def farthest_pairs(pts: np.ndarray, sizes: np.ndarray, dists: np.ndarray):
    """Rows of the split seeds of every segment of pts.

    p1 is the member farthest from the centre (``dists``), p2 the member
    farthest from p1.  Ties go to the first row, which is the lowest point
    index, so splitting stays deterministic.
    """
    p1 = first_argmax(dists, sizes)
    p2 = first_argmax(distances(pts, np.repeat(pts.take(p1, axis=0), sizes, axis=0)), sizes)
    return p1, p2


def fit_ball(dataset: Dataset, members: Iterable[int]) -> GranularBall:
    """Fit a ball to the given member indices.

    Members are deduplicated and summed in ascending index order, so fitting
    the same member set twice is bit-for-bit reproducible.  An int array
    that is already strictly ascending is used as it is.
    """
    idx = (np.array(members, dtype=np.int64) if isinstance(members, np.ndarray)
           else np.fromiter(members, dtype=np.int64))
    if not (idx[1:] > idx[:-1]).all():
        idx = np.unique(idx)
    if idx.size == 0:
        raise ValueError("cannot fit a ball to an empty member set")
    if idx[0] < 0 or idx[-1] >= len(dataset):
        raise ValueError(f"member index out of range for dataset of size {len(dataset)}")
    centers, _, radii, sums = fit_segments(dataset.points.take(idx, axis=0), np.array([idx.size]))
    return GranularBall.from_fit(idx, centers[0], radii[0], sums[0])


def farthest_pair_seed(dataset: Dataset, ball: GranularBall) -> tuple[int, int]:
    """Pick the two split seeds for a ball.

    p1 is the member farthest from the center; p2 the member farthest from
    p1.  Ties break toward the lowest point index, which keeps splitting
    deterministic.
    """
    if ball.size < 2:
        raise ValueError("seed selection needs a ball with at least 2 members")
    pts = dataset.points.take(ball.members, axis=0)
    p1, p2 = farthest_pairs(pts, np.array([ball.size]), distances(pts, ball.center))
    return int(ball.members[p1[0]]), int(ball.members[p2[0]])
