"""Core types and the primitive ball computations.

A granular ball summarizes a group of points by the mean of its members
(the center) and the maximum member-to-center distance (the radius).  Ball
quality is the average member-to-center distance: the smaller, the tighter.
All distances are Euclidean (L2).  A ``BallSet`` holds any number of balls
as arrays, and the kernels below fit and seed all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Label given to points not assigned to any cluster.
NOISE = -1
# Rows per block of the transposing copy in ``_columns``.
_BLOCK_ROWS = 4096


def _is_int64(v):
    """True where ``v`` is an integer in int64's range [-2**63, 2**63) (never NaN or inf)."""
    return (v == np.trunc(v)) & (v >= -2.0**63) & (v < 2.0**63)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64; anything but integers (a bool mask, 0.5) raises ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "f" and _is_int64(arr).all()):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.int64, copy=False)


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
            lab = _integers(self.labels, "labels")
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must have exactly one entry per point")
            object.__setattr__(self, "labels", lab)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(eq=False)
class BallSet:
    """Balls over a dataset's points, as arrays: the partition that division
    returns, or the one ball of ``fit_ball`` and the two of ``split_once``.

    ``order`` is a permutation of the point indices in which every ball is a
    contiguous slice, ball i's members ``order[starts[i]:starts[i] +
    sizes[i]]`` in ascending order; ``starts`` is the exclusive cumsum of
    ``sizes``.  Row i of ``centers``, ``radii`` and ``sum_radius`` is ball i's
    geometry.  ``overlap_counts[i]`` is the number of other non-noise balls
    whose region intersects ball i (zero until the differentiation stage
    fills it in).  ``noise_ball_flags[i]``, derived from ``sizes``, marks
    single-point balls, which sit out of the merging stage.
    """

    order: np.ndarray
    sizes: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    sum_radius: np.ndarray
    overlap_counts: np.ndarray | None = None

    def __post_init__(self):
        if self.overlap_counts is None:
            self.overlap_counts = np.zeros(len(self), dtype=np.int64)

    @property
    def noise_ball_flags(self) -> np.ndarray:
        return self.sizes == 1

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    def __len__(self) -> int:
        return self.sizes.size


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Per-point cluster labels: -1 marks noise, clusters are 0..K-1."""

    labels: np.ndarray

    def __post_init__(self):
        lab = _integers(self.labels, "cluster labels")
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


def squared_distances(pts: np.ndarray, to: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
    """Sum over the leading axis of ``(pts - to) ** 2``, the coordinates added in order.

    ``pts[j]`` and ``to[j]`` broadcast: rows (d, n) against (d, n) or (d, 1)
    give n sums, a tile (d, B, 1) against (d, 1, W) a (B, W) plane.  With
    ``sizes``, ``to`` is a centre table (d, k) whose column i serves the next
    sizes[i] columns of pts: coordinate j is ``np.repeat(to[j], sizes)``.
    Under 8 coordinates these are the bits of ``.sum(axis=-1)`` over
    row-major squares, which numpy adds in order too.
    """
    acc = None
    for p, t in zip(pts, to):
        if sizes is None:
            col = p - t
        else:
            col = np.repeat(t, sizes)
            np.subtract(p, col, out=col)
        col *= col
        acc = col if acc is None else np.add(acc, col, out=acc)
    return acc


def distances(pts: np.ndarray, to: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances, ``np.sqrt(squared_distances(pts, to, sizes))``: member
    to centre and centre to centre alike."""
    acc = squared_distances(pts, to, sizes)
    return np.sqrt(acc, out=acc)


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Positions of the runs [starts[i], starts[i] + sizes[i]), one after another."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _columns(points: np.ndarray) -> np.ndarray:
    """A copy of points (n, d) as columns (d, n), made 4,096 rows at a time,
    so that each block is read and written while it is in cache."""
    out = np.empty(points.shape[::-1])
    for s in range(0, len(points), _BLOCK_ROWS):
        out[:, s:s + _BLOCK_ROWS] = points[s:s + _BLOCK_ROWS].T
    return out


def fit_segments(pts: np.ndarray, sizes: np.ndarray):
    """Fit one ball to every segment, a run ``sizes`` of the columns of pts
    (d, n), members ascending.

    Returns the centres (d, k), each column's distance to its centre, and the
    radii and distance sums.  Sums are ``np.add.reduceat``: a segment
    x[s:e] sums to ``x[s] + x[s + 1:e].sum()``, so fitting a ball alone or
    among others gives the same bits.
    """
    starts = np.cumsum(sizes) - sizes
    centers = np.add.reduceat(pts, starts, axis=1) / sizes
    dists = distances(pts, centers, sizes)
    return centers, dists, np.maximum.reduceat(dists, starts), np.add.reduceat(dists, starts)


def first_argmax(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray, maxima=None) -> np.ndarray:
    """Position in x of the first maximum of every segment; ``maxima``, if given, are those maxima."""
    maxima = np.maximum.reduceat(x, starts) if maxima is None else maxima
    hit = np.flatnonzero(x == np.repeat(maxima, sizes))
    return hit[np.searchsorted(hit, starts)]


def fit_ball(dataset: Dataset, members: Iterable[int]) -> BallSet:
    """Fit a ball to the given member indices; a BallSet of that one ball.

    Members are deduplicated and summed in ascending index order, so fitting
    the same member set twice is bit-for-bit reproducible.  A strictly
    ascending int array is used as it is and a contiguous range is sliced,
    not gathered; a bool mask or a non-integer member raises ValueError.
    """
    idx = _integers(np.array(members) if isinstance(members, np.ndarray) else list(members),
                    "members")
    if not (idx[1:] > idx[:-1]).all():
        idx = np.unique(idx)
    if idx.size == 0:
        raise ValueError("cannot fit a ball to an empty member set")
    if idx[0] < 0 or idx[-1] >= len(dataset):
        raise ValueError(f"member index out of range for dataset of size {len(dataset)}")
    contiguous = idx[-1] - idx[0] == idx.size - 1
    pts = _columns(dataset.points[idx[0]:idx[-1] + 1] if contiguous
                   else dataset.points.take(idx, axis=0))
    sizes = np.array([idx.size])
    centers, _, radii, sums = fit_segments(pts, sizes)
    return BallSet(order=idx, sizes=sizes, centers=centers.T, radii=radii, sum_radius=sums)

