"""Ball division: quality-driven splitting followed by oversized-ball cleanup.

Phase 1 starts from one ball over the whole dataset and keeps splitting while
both children improve on the parent's average distance.  Phase 2 then
force-splits balls whose radius exceeds twice the larger of the mean and
median radius, recomputing those statistics each round, until none are left
or the round cap trips.

Each round splits all of its balls with one set of kernels; ``split_once``
runs them on the one-ball BallSet of ``fit_ball``, which also fits the root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (BallSet, Dataset, _columns, _runs, distances, first_argmax, fit_ball,
                   fit_segments, squared_distances)


# The smallest ball the quality loop tries to split.  It needs a floor well
# above 2: the improvement test alone never stops on smooth data (any two
# distinct points split into two singletons of quality 0), so without a
# floor every ball fragments to single points.
MIN_SPLIT_SIZE = 20
# The cap on the rounds of the oversized-ball cleanup.
MAX_REFINEMENT_ROUNDS = 100


@dataclass(frozen=True)
class RoundStats:
    phase: str  # "divide" or "refine"
    ball_count: int
    split_count: int
    oversized_count: int


@dataclass
class DivisionTrace:
    """Optional instrumentation collector for generate_balls.

    With ``capture_partitions`` set, the member arrays of every ball are
    snapshotted after each round, listed by least member (costly; tests
    only).  ``stop_reason`` says why the oversized-ball cleanup ended:
    "converged" (no oversized ball left), "round_cap" or "split_failed" (a
    split of an oversized ball put every member on one side);
    ``round_cap_hit`` is read from it.

    A trace passed to several runs accumulates: each run appends to
    ``rounds`` and ``partitions``, while ``stop_reason`` and
    ``round_cap_hit`` describe the last run only.
    """

    capture_partitions: bool = False
    rounds: list[RoundStats] = field(default_factory=list)
    partitions: list[list[np.ndarray]] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def round_cap_hit(self) -> bool:
        return self.stop_reason == "round_cap"

    def _snapshot(self, pieces):
        """Record the balls of ``pieces``, each (sizes, ids) with ball i the
        next sizes[i] ids, members ascending, in the order of their least members."""
        sizes, ids = (np.concatenate(a) for a in zip(*pieces))
        balls = np.split(ids, np.cumsum(sizes)[:-1])
        self.partitions.append(sorted(balls, key=lambda ball: ball[0]))


def _partition(to_a: np.ndarray, sizes: np.ndarray, starts: np.ndarray):
    """The stable sort by (segment, side) of the rows of the segments, runs
    ``sizes`` from ``starts``, that ``to_a`` splits in two (``ok``), in O(n):
    a segment is a run of all a-rows and a run of all b-rows, gathered in
    turn.  Returns ok, the side sizes a0, b0, a1, ... and the positions."""
    a_rows = np.flatnonzero(to_a)
    a_before = np.searchsorted(a_rows, np.append(starts, to_a.size))
    n_a = np.diff(a_before)
    ok = (n_a > 0) & (n_a < sizes)
    a_before = a_before[:-1][ok]
    side_starts = np.column_stack((a_before, a_rows.size + starts[ok] - a_before)).ravel()
    side_sizes = np.column_stack((n_a[ok], sizes[ok] - n_a[ok])).ravel()
    by_side = np.concatenate((a_rows, np.flatnonzero(~to_a)))
    del a_rows
    return ok, side_sizes, by_side.take(_runs(side_starts, side_sizes))


def _sides(pts: np.ndarray, far: np.ndarray, sizes: np.ndarray, centers: np.ndarray):
    """Assign the members of every ball, a run ``sizes`` of the columns of pts
    (d, n), to its two children; ``far`` holds each ball's offset of its
    member farthest from its centre (``centers``, d by k).

    The seeds are that member, p1, and the member farthest from p1, p2 (ties
    to the lowest point index).  Member x joins child a when |x - p1|² -
    |x - p2|² <= (|c - p1|² - |c - p2|²) / 2, that is, by the parallelogram
    law, when it is no farther from the midpoint of c and p1 than from that
    of c and p2; the distances to p1 are those that found p2.  Returns
    ``ok`` (k,), False where a side ends up empty (coincident members); the
    child sizes; and the positions of the columns of the ok balls, children
    in the order a0, b0, a1, ..., members ascending.
    """
    starts = np.cumsum(sizes) - sizes
    p1 = pts.take(starts + far, axis=1)
    diff = squared_distances(pts, p1, sizes)
    p2 = pts.take(first_argmax(diff, starts, sizes), axis=1)
    diff -= squared_distances(pts, p2, sizes)
    cut = (squared_distances(centers, p1) - squared_distances(centers, p2)) / 2.0
    to_a = diff <= np.repeat(cut, sizes)
    del diff
    return _partition(to_a, sizes, starts)


def _fit_children(child_pts: np.ndarray, child_sizes: np.ndarray):
    """The children's centres (d, k), radii, distance sums and farthest offsets."""
    centers, dists, radii, sums = fit_segments(child_pts, child_sizes)
    starts = np.cumsum(child_sizes) - child_sizes
    return centers, radii, sums, first_argmax(dists, starts, child_sizes, radii) - starts


def _pick(tables: tuple, pts: np.ndarray, ids: np.ndarray, which: np.ndarray) -> tuple:
    """The balls ``which`` (a mask) of ``tables``, whose last axis runs over
    the balls, sizes first, with their runs of the columns pts and ids; the
    arrays themselves when every ball is picked."""
    if which.all():
        return (*tables, pts, ids)
    cols = np.repeat(which, tables[0])
    return (*[table[..., which] for table in tables], pts.compress(cols, axis=1), ids[cols])


def split_once(dataset: Dataset, ball: BallSet):
    """Split the one ball of ``ball`` in a single assignment pass (see ``_sides``).

    Returns the fitted children as a two-ball BallSet, child a first, or
    None when one side ends up empty (coincident members).
    """
    if not isinstance(ball, BallSet) or len(ball) != 1 or ball.sizes[0] < 2:
        raise ValueError("split_once needs a BallSet of one ball with at least 2 members")
    pts = dataset.points.take(ball.order, axis=0).T.copy()
    center = ball.centers.T
    ok, sizes, part = _sides(
        pts, first_argmax(distances(pts, center), np.array([0]), ball.sizes), ball.sizes, center)
    if not ok[0]:
        return None
    centers, radii, sums, _ = _fit_children(pts.take(part, axis=1), sizes)
    return BallSet(order=ball.order[part], sizes=sizes, centers=centers.T, radii=radii,
                   sum_radius=sums)


def should_split(parent_ad, child_a_ad, child_b_ad):
    """Accept a split only when both children strictly improve the parent's
    average distance; elementwise on arrays."""
    return (child_a_ad < parent_ad) & (child_b_ad < parent_ad)


def detect_oversized(radii) -> np.ndarray:
    """Ascending indices of balls with radius > 2 * max(mean radius, median radius).

    Both statistics come from the sorted radii, so the threshold depends on
    the set of radii alone: the mean sums them in ascending order, and the
    median, the middle one or the mean of the middle two, has the bits of
    ``np.median``.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("detect_oversized needs at least one ball")
    s = np.sort(radii)
    k = s.size // 2
    median = s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2.0
    return np.flatnonzero(radii > 2.0 * max(float(s.mean()), float(median)))


def generate_balls(dataset: Dataset, trace: DivisionTrace | None = None) -> BallSet:
    """Divide a dataset into granular balls.

    Returns a BallSet whose member sets partition the dataset.  Singleton
    balls are flagged as noise; overlap counts are left zeroed for the
    differentiation stage.  Pass a DivisionTrace to observe per-round
    progress, the round-cap warning flag and why refinement stopped.

    Each round splits all of its balls at once, on arrays.  A ball is a run
    of columns, members ascending, of the points (d, n) and their ids, so
    each ball is fitted once; tables hold the sizes, centres (d, k), radii,
    distance sums and the offset in its run of the member farthest from the
    centre.  In phase 1 these hold the balls that the round tries, in phase 2
    every ball.  About one copy of the columns is live at a time: a round
    drops its parent columns once it has gathered the children's.
    """
    if trace is None:
        trace = DivisionTrace()
    root = fit_ball(dataset, np.arange(len(dataset)))
    pts, ids = _columns(dataset.points), root.order
    far = first_argmax(distances(pts, root.centers.T), np.array([0]), root.sizes)
    kids = (root.sizes, root.centers.T, root.radii, root.sum_radius, far)
    del root

    # Phase 1: quality-driven splitting.  Each ball is examined once; a ball
    # whose split fails or is rejected is final, its children otherwise
    # re-enter the queue.  The columns of the final balls lie in the order
    # that they became final.  The accepted children (``kids``, columns pts
    # and ids, with those of the rejected splits' children) under
    # MIN_SPLIT_SIZE are final at once, the others are the next round's
    # arrays, and a rejected ball's ascending columns are taken back from its
    # children.
    final = []  # pieces: sizes, centres, radii, sums, farthest offsets, columns and ids
    accepted, done = np.array([True]), 0
    while accepted.any():
        small = accepted & (kids[0] < MIN_SPLIT_SIZE)
        if small.any():
            final.append(_pick(kids, pts, ids, small))
        sizes, centers, radii, sums, far, pts, ids = _pick(kids, pts, ids, accepted ^ small)
        tried = (sizes, centers, radii, sums, far)
        starts = np.cumsum(sizes) - sizes
        ok, c_sizes, part = _sides(pts, far, sizes, centers)
        if not ok.all():
            final.append(_pick(tried, pts, ids, ~ok))
        ids = ids[part]  # the parent ids and then columns go here, one at a time
        pts = pts.take(part, axis=1)
        kids = (c_sizes, *_fit_children(pts, c_sizes))
        parent_ad = sums[ok] / sizes[ok]
        child_ad = (kids[3] / c_sizes).reshape(-1, 2)
        better = should_split(parent_ad, child_ad[:, 0], child_ad[:, 1])
        rejected = ok.copy()
        rejected[ok] = ~better
        if rejected.any():
            back = np.empty(sizes.sum(), dtype=np.int64)  # part's inverse
            back[part] = np.arange(part.size)
            cols = back[_runs(starts[rejected], sizes[rejected])]
            final.append((*(table[..., rejected] for table in tried),
                          pts.take(cols, axis=1), ids[cols]))
            del back, cols
        del part, tried
        splits = int(better.sum())
        accepted, done = np.repeat(better, 2), done + int(small.sum()) + sizes.size - splits
        trace.rounds.append(RoundStats("divide", done + 2 * splits, splits, 0))
        if trace.capture_partitions:
            trace._snapshot([(f[0], f[6]) for f in final] + [
                (c_sizes[accepted], ids[np.repeat(accepted, c_sizes)])])
    *tables, pts, ids = zip(*final)
    del final, kids
    pts = np.concatenate(pts, axis=1)  # the pieces of columns go once joined
    ids = np.concatenate(ids)
    sizes, centers, radii, sums, far = (np.concatenate(t, axis=-1) for t in tables)
    starts = np.cumsum(sizes) - sizes

    # Phase 2: force-split oversized balls, recomputing the radius statistics
    # each round because splits shift the mean and median.  Children take
    # their parent's place in the columns.  In the tables, child a takes its
    # parent's row and child b's row is appended.
    trace.stop_reason = "converged"
    rounds = 0
    while True:
        over = detect_oversized(radii)
        if not over.size:
            break
        if rounds >= MAX_REFINEMENT_ROUNDS:
            trace.stop_reason = "round_cap"
            warnings.warn("ball refinement hit the round cap with oversized balls remaining",
                          RuntimeWarning, stacklevel=2)
            break
        rounds += 1
        pos = _runs(starts[over], sizes[over])
        c_pts = pts.take(pos, axis=1)
        ok, c_sizes, part = _sides(c_pts, far[over], sizes[over], centers.take(over, axis=1))
        c_pts = c_pts.take(part, axis=1)  # the gathered copy goes before the fit
        fit = _fit_children(c_pts, c_sizes)
        split_pos = pos[np.repeat(ok, sizes[over])]
        ids[split_pos] = ids[pos[part]]
        pts[:, split_pos] = c_pts
        del pos, part, c_pts, split_pos
        c_starts = np.repeat(starts[over[ok]], 2)
        c_starts[1::2] += c_sizes[::2]
        tables = (sizes, centers, radii, sums, far, starts)
        children = (c_sizes, *fit, c_starts)
        for table, kids in zip(tables, children):
            table[..., over[ok]] = kids[..., ::2]
        sizes, centers, radii, sums, far, starts = (
            np.concatenate((table, kids[..., 1::2]), axis=-1)
            for table, kids in zip(tables, children))
        trace.rounds.append(RoundStats("refine", sizes.size, int(ok.sum()), over.size))
        if trace.capture_partitions:
            trace._snapshot([(sizes, ids[_runs(starts, sizes)])])
        if not ok.all():
            trace.stop_reason = "split_failed"  # degenerate ball; kept as-is
            break

    # Balls are numbered by their smallest member, members still ascending.
    del pts
    rows = np.argsort(ids[starts])
    return BallSet(order=ids[_runs(starts[rows], sizes[rows])], sizes=sizes[rows],
                   centers=centers.T.take(rows, axis=0), radii=radii[rows], sum_radius=sums[rows])
