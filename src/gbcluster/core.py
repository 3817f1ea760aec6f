"""Core types and the primitive ball computations.

A granular ball summarizes a group of points by the mean of its members
(the center) and the maximum member-to-center distance (the radius).  Ball
quality is the average member-to-center distance: the smaller, the tighter.
All distances are Euclidean (L2).
"""

from __future__ import annotations

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


def segment_sums(x: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
                 seg: np.ndarray) -> np.ndarray:
    """``x[s:e].sum()`` of every segment, bit for bit; ``starts, seg = segments(sizes)``.

    Runs of up to 128 items are summed as numpy does (``_pairwise``); longer
    runs split in halves, and are summed one by one here.
    """
    local = np.arange(x.size) - starts[seg]
    lead = sizes & ~7
    # the tail adds +0.0 to a lane, which changes no lane sum: they start at +0.0
    weights = np.where(local < lead[seg], x, 0.0)
    local &= 7
    local += seg * 8
    # (an empty bincount is int64 even with weights)
    lanes = np.bincount(local, weights=weights, minlength=8 * sizes.size)
    lanes = lanes.astype(np.float64).reshape(-1, 8)
    out = _pairwise(lambda j: lanes[:, j].copy(), 0, 8)
    for t in range(7):
        tail = sizes - lead > t
        out[tail] += x[starts[tail] + lead[tail] + t]
    for i in np.flatnonzero(sizes > 128):
        out[i] = x[starts[i]:starts[i] + sizes[i]].sum()
    return out


def _lanes(term, first: int, count: int, stop: int):
    """Lanes first..first + count - 1, each every 8th term before stop, in numpy's tree."""
    if count > 1:
        acc = _lanes(term, first, count // 2, stop)
        acc += _lanes(term, first + count // 2, count // 2, stop)
        return acc
    acc = term(first)
    for j in range(first + 8, stop, 8):
        acc += term(j)
    return acc


def _pairwise(term, lo: int, hi: int):
    """``term(lo) + ... + term(hi - 1)`` in the order numpy sums a contiguous run.

    Under 8 terms in order; up to 128 in 8 interleaved lanes over the leading
    multiple of 8, added ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the
    rest in order; more as two halves, the first a multiple of 8 long.
    """
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _pairwise(term, lo, lo + half)
        acc += _pairwise(term, lo + half, hi)
        return acc
    lead = lo + (n & ~7)
    acc = _lanes(term, lo, 8, lead) if n >= 8 else term(lo)
    for j in range(max(lead, lo + 1), hi):
        acc += term(j)
    return acc


def squared_distances(pts: np.ndarray, to: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """``((p - t) ** 2).sum(axis=-1)`` bit for bit, the coordinate on the leading axis.

    ``pts[j]`` and ``to[j]`` broadcast: rows (d, n) against (d, n) or (d, 1)
    give n sums, a tile (d, B, 1) against (d, 1, W) a (B, W) plane.  With
    ``at``, coordinate j of ``to`` is ``to[j].take(at)``: rows against a
    centre table (d, k).  Adding the squares a coordinate at a time in
    numpy's order (``_pairwise``) is several times faster than ``.sum``.
    """
    def term(j):
        if at is None:
            col = pts[j] - to[j]
        else:
            col = to[j].take(at)
            np.subtract(pts[j], col, out=col)
        col *= col
        return col

    return _pairwise(term, 0, pts.shape[0])


def distances(pts: np.ndarray, to: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances, ``np.sqrt(squared_distances(pts, to, at))``: member
    to centre, centre to centre and noise point to centre alike."""
    acc = squared_distances(pts, to, at)
    return np.sqrt(acc, out=acc)


def take_columns(pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``pts.take(idx, axis=1)``, a row at a time: the rows of pts (d, n) need not
    be one block, as in a column range of a larger array or the transpose of
    (n, d) points, which ``take`` would copy whole first.  ("wrap" spares
    ``take`` a buffered copy; the indices are in range.)"""
    out = np.empty((pts.shape[0], idx.size))
    for row, dst in zip(pts, out):
        np.take(row, idx, out=dst, mode="wrap")
    return out


def fit_segments(pts: np.ndarray, sizes: np.ndarray, starts: np.ndarray, seg: np.ndarray):
    """Fit one ball to every segment of the columns of pts (d, n), members
    ascending; ``starts, seg = segments(sizes)``.

    Returns the centres (d, k), each column's distance to its centre, and the
    radii and distance sums, bit-identical to fitting each ball alone: for
    d >= 2 numpy's mean adds the members in order, as ``bincount`` does, and
    one coordinate is summed pairwise.
    """
    if pts.shape[0] == 1:
        sums = segment_sums(pts[0], sizes, starts, seg)[None]
    else:
        sums = np.array([np.bincount(seg, weights=row, minlength=sizes.size) for row in pts])
    centers = sums / sizes
    dists = distances(pts, centers, seg)
    radii = np.maximum.reduceat(dists, starts)
    return centers, dists, radii, segment_sums(dists, sizes, starts, seg)


def first_argmax(x: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Position in x of the first maximum of every segment."""
    top = np.maximum.reduceat(x, starts)
    return np.minimum.reduceat(np.where(x == top[seg], np.arange(x.size), x.size), starts)


def farthest_pairs(pts: np.ndarray, starts: np.ndarray, seg: np.ndarray, dists: np.ndarray):
    """Columns of the split seeds of every segment of pts (d, n).

    p1 is the member farthest from the centre (``dists``), p2 the member
    farthest from p1.  Ties go to the first column, which is the lowest point
    index, so splitting stays deterministic.
    """
    p1 = first_argmax(dists, starts, seg)
    return p1, first_argmax(distances(pts, take_columns(pts, p1), seg), starts, seg)


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
    sizes = np.array([idx.size])
    pts = take_columns(dataset.points.T, idx)
    centers, _, radii, sums = fit_segments(pts, sizes, *segments(sizes))
    return GranularBall.from_fit(idx, centers[:, 0], radii[0], sums[0])


def farthest_pair_seed(dataset: Dataset, ball: GranularBall) -> tuple[int, int]:
    """Pick the two split seeds for a ball.

    p1 is the member farthest from the center; p2 the member farthest from
    p1.  Ties break toward the lowest point index, which keeps splitting
    deterministic.
    """
    if ball.size < 2:
        raise ValueError("seed selection needs a ball with at least 2 members")
    pts = take_columns(dataset.points.T, ball.members)
    starts, seg = segments(np.array([ball.size]))
    p1, p2 = farthest_pairs(pts, starts, seg, distances(pts, ball.center[:, None]))
    return int(ball.members[p1[0]]), int(ball.members[p2[0]])
