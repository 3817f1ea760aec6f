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

from .core import (BallSet, Dataset, _runs, distances, farthest_pairs, first_argmax, fit_ball,
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

    ``accepted_splits`` records (parent AD, child ADs) for every quality-
    accepted split.  With ``capture_partitions`` set, the member arrays of
    every ball are snapshotted after each round (costly; tests only).
    ``stop_reason`` says why the oversized-ball cleanup ended: "converged"
    (no oversized ball left), "round_cap" or "split_failed" (a split of an
    oversized ball put every member on one side); ``round_cap_hit`` is read
    from it.

    A trace passed to several runs accumulates: each run appends to
    ``rounds``, ``accepted_splits`` and ``partitions``, while
    ``stop_reason`` and ``round_cap_hit`` describe the last run only.
    """

    capture_partitions: bool = False
    rounds: list[RoundStats] = field(default_factory=list)
    accepted_splits: list[tuple[float, float, float]] = field(default_factory=list)
    partitions: list[list[np.ndarray]] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def round_cap_hit(self) -> bool:
        return self.stop_reason == "round_cap"

    def _snapshot(self, members: list[np.ndarray], sizes: list[np.ndarray]):
        """Record the balls whose members are the runs ``sizes`` of the
        pieces ``members`` joined."""
        if self.capture_partitions:
            bounds = np.cumsum(np.concatenate(sizes))[:-1]
            self.partitions.append(np.split(np.concatenate(members), bounds))


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
    return ok, side_sizes, by_side.take(_runs(side_starts, side_sizes))


def _split(pts: np.ndarray, far: np.ndarray, sizes: np.ndarray, centers: np.ndarray,
           rows: np.ndarray | None = None):
    """Split every ball, a run ``sizes`` of the columns ``rows`` (default all)
    of pts (d, n), in one assignment pass; ``far`` holds each ball's offset
    of its member farthest from its centre (``centers``, d by k).

    The child centres start at the midpoints between the ball centre and
    each seed; every member joins the nearer by squared distance (ties go
    to the first child).  Returns ``ok`` (k,), False where a side ends up
    empty (coincident members); the positions of the columns of the ok
    balls, children in the order a0, b0, a1, ..., members ascending; and the
    child sizes, columns (d, by child members) and fit, with farthest offsets.
    """
    if rows is not None:
        pts = pts.take(rows, axis=1)
    starts = np.cumsum(sizes) - sizes
    p1, p2 = farthest_pairs(pts, starts, sizes, far)
    c1 = (centers + pts.take(p1, axis=1)) / 2.0
    c2 = (centers + pts.take(p2, axis=1)) / 2.0
    ok, child_sizes, part = _partition(
        squared_distances(pts, c1, sizes) <= squared_distances(pts, c2, sizes), sizes, starts)
    child_pts = pts.take(part, axis=1)
    del pts  # the gathered copy, when rows are given
    c_centers, c_dists, c_radii, c_sums = fit_segments(child_pts, child_sizes)
    c_starts = np.cumsum(child_sizes) - child_sizes
    c_far = first_argmax(c_dists, c_starts, child_sizes, c_radii) - c_starts
    return (ok, part if rows is None else rows[part], child_sizes, child_pts,
            (c_centers, c_far, c_radii, c_sums))


def split_once(dataset: Dataset, ball: BallSet):
    """Split the one ball of ``ball`` in a single assignment pass (see ``_split``).

    Returns the fitted children as a two-ball BallSet, child a first, or
    None when one side ends up empty (coincident members).
    """
    if not isinstance(ball, BallSet) or len(ball) != 1 or ball.sizes[0] < 2:
        raise ValueError("split_once needs a BallSet of one ball with at least 2 members")
    pts = dataset.points.take(ball.order, axis=0).T.copy()
    center = ball.centers.T
    ok, part, sizes, _, (centers, _, radii, sums) = _split(
        pts, first_argmax(distances(pts, center), np.array([0]), ball.sizes), ball.sizes, center)
    if not ok[0]:
        return None
    return BallSet(order=ball.order[part], sizes=sizes, centers=centers.T, radii=radii,
                   sum_radius=sums)


def should_split(parent_ad, child_a_ad, child_b_ad):
    """Accept a split only when both children strictly improve the parent's
    average distance; elementwise on arrays."""
    return (child_a_ad < parent_ad) & (child_b_ad < parent_ad)


def detect_oversized(radii) -> np.ndarray:
    """Ascending indices of balls with radius > 2 * max(mean radius, median radius)."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("detect_oversized needs at least one ball")
    threshold = 2.0 * max(float(radii.mean()), float(np.median(radii)))
    return np.flatnonzero(radii > threshold)


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
    centre.  In phase 1 these hold the pending balls only, in phase 2 every
    ball.  Each round's copies are dropped before the next round's split.
    """
    if trace is None:
        trace = DivisionTrace()
    root = fit_ball(dataset, np.arange(len(dataset)))
    sizes, centers, radii, sums = root.sizes, root.centers.T, root.radii, root.sum_radius
    del root  # its order is a second arange(n)
    pts, ids = dataset.points.T.copy(), np.arange(len(dataset))
    far = first_argmax(distances(pts, centers), np.array([0]), sizes)

    # Phase 1: quality-driven splitting.  Each ball is examined once; a ball
    # whose split fails or is rejected is final, its children otherwise
    # re-enter the queue.  A round's final balls leave for ``final``, and the
    # accepted children, as _split gathered them, are the next round's
    # arrays.  So the final balls keep the order of the per-ball loop that
    # defines the method, in which phase 2's mean radius sums.
    final = []  # per round: sizes, centres, radii, sums, farthest offsets, columns and ids
    while sizes.size:
        starts = np.cumsum(sizes) - sizes
        tried = np.flatnonzero(sizes >= MIN_SPLIT_SIZE)
        rows = None if tried.size == sizes.size else _runs(starts[tried], sizes[tried])
        ok, part, c_sizes, c_pts, (c_centers, c_far, c_radii, c_sums) = _split(
            pts, far[tried], sizes[tried], centers.take(tried, axis=1), rows)
        del rows
        parent_ad = sums[tried[ok]] / sizes[tried[ok]]
        child_ad = (c_sums / c_sizes).reshape(-1, 2)
        better = should_split(parent_ad, child_ad[:, 0], child_ad[:, 1])
        trace.accepted_splits.extend(zip(parent_ad[better].tolist(), *child_ad[better].T.tolist()))
        split = np.zeros(sizes.size, dtype=bool)
        split[tried[ok][better]] = True
        stay = _runs(starts[~split], sizes[~split])
        final.append((sizes[~split], centers.compress(~split, axis=1), radii[~split], sums[~split],
                      far[~split], pts.take(stay, axis=1), ids[stay]))
        moved, kids = np.repeat(better, c_sizes[::2] + c_sizes[1::2]), np.repeat(better, 2)
        pts, ids = c_pts.compress(moved, axis=1), ids[part[moved]]
        del stay, c_pts, part, moved
        sizes, centers, far = c_sizes[kids], c_centers.compress(kids, axis=1), c_far[kids]
        radii, sums = c_radii[kids], c_sums[kids]
        trace.rounds.append(RoundStats("divide", sum(f[0].size for f in final) + sizes.size,
                                       int(better.sum()), 0))
        trace._snapshot([f[6] for f in final] + [ids], [f[0] for f in final] + [sizes])
    sizes, centers, radii, sums, far, pts, ids = (np.concatenate(a, axis=-1) for a in zip(*final))
    del final  # the pieces, a second copy of the columns

    # Phase 2: force-split oversized balls, recomputing the radius statistics
    # each round because splits shift the mean and median.  Children take
    # their parent's place in the columns.  In the tables, child a takes its
    # parent's row and child b's row is appended; ``seq`` lists the rows in
    # column order, the order of the per-ball loop, in which the mean radius
    # sums.
    trace.stop_reason = "converged"
    rounds, seq = 0, np.arange(sizes.size)
    while True:
        over = detect_oversized(radii[seq])
        if not over.size:
            break
        if rounds >= MAX_REFINEMENT_ROUNDS:
            trace.stop_reason = "round_cap"
            warnings.warn("ball refinement hit the round cap with oversized balls remaining",
                          RuntimeWarning, stacklevel=2)
            break
        rounds += 1
        in_seq, oversized = sizes[seq], seq[over]
        pos = _runs((np.cumsum(in_seq) - in_seq)[over], in_seq[over])
        ok, part, c_sizes, c_pts, (c_centers, c_far, c_radii, c_sums) = _split(
            pts, far[oversized], in_seq[over], centers.take(oversized, axis=1), pos)
        split_pos = pos[np.repeat(ok, in_seq[over])]
        ids[split_pos] = ids[part]
        for row, kids in zip(pts, c_pts):
            row[split_pos] = kids
        del pos, part, c_pts, split_pos
        seq = np.insert(seq, over[ok] + 1, np.arange(seq.size, seq.size + ok.sum()))
        tables = (sizes, centers, radii, sums, far)
        children = (c_sizes, c_centers, c_radii, c_sums, c_far)
        for table, kids in zip(tables, children):
            table[..., oversized[ok]] = kids[..., ::2]
        sizes, centers, radii, sums, far = (np.concatenate((table, kids[..., 1::2]), axis=-1)
                                            for table, kids in zip(tables, children))
        trace.rounds.append(RoundStats("refine", seq.size, int(ok.sum()), over.size))
        trace._snapshot([ids], [sizes[seq]])
        if not ok.all():
            trace.stop_reason = "split_failed"  # degenerate ball; kept as-is
            break

    # Balls are numbered by their smallest member, members still ascending.
    del pts
    in_seq = sizes[seq]
    starts = np.cumsum(in_seq) - in_seq
    by = np.argsort(ids[starts])
    rows = seq[by]
    return BallSet(order=ids[_runs(starts[by], in_seq[by])], sizes=sizes[rows],
                   centers=centers.T.take(rows, axis=0), radii=radii[rows], sum_radius=sums[rows])
