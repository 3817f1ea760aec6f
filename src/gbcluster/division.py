"""Ball division: quality-driven splitting followed by oversized-ball cleanup.

Phase 1 starts from one ball over the whole dataset and keeps splitting while
both children improve on the parent's average distance.  Phase 2 then
force-splits balls whose radius exceeds twice the larger of the mean and
median radius, recomputing those statistics each round, until none are left
or the round cap trips.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (BallSet, Dataset, GranularBall, distances, farthest_pairs, fit_ball,
                   fit_segments, segments)


@dataclass(frozen=True)
class DivisionConfig:
    """Structural constants of the division loop; not per-dataset knobs.

    ``min_split_size`` is the smallest ball the quality loop will try to
    split.  It needs a floor well above 2: the improvement test alone never
    stops on smooth data (any two distinct points split into two singletons
    of quality 0), so without a floor every ball fragments to single points.
    ``max_refinement_rounds`` caps the oversized-ball cleanup.
    """

    max_refinement_rounds: int = 100
    min_split_size: int = 20

    def __post_init__(self):
        if self.max_refinement_rounds < 1:
            raise ValueError("max_refinement_rounds must be >= 1")
        if self.min_split_size < 2:
            raise ValueError("min_split_size must be >= 2")


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
    oversized ball put every member on one side).
    """

    capture_partitions: bool = False
    rounds: list[RoundStats] = field(default_factory=list)
    accepted_splits: list[tuple[float, float, float]] = field(default_factory=list)
    partitions: list[list[np.ndarray]] = field(default_factory=list)
    round_cap_hit: bool = False
    stop_reason: str | None = None

    def _snapshot(self, members: list[np.ndarray], sizes: list[np.ndarray]):
        """Record the balls whose members are the runs ``sizes`` of ``members``."""
        if self.capture_partitions:
            sizes = np.concatenate(sizes)
            self.partitions.append([m.copy() for m in np.split(np.concatenate(members),
                                                               np.cumsum(sizes)[:-1])])


def _split(pts: np.ndarray, sizes: np.ndarray, centers: np.ndarray, dists: np.ndarray):
    """Split every ball, a run ``sizes`` of the rows of pts, in one assignment pass.

    The initial child centers are the midpoints between the ball center and
    each seed; every member then joins the nearer one (ties go to the first
    child).  ``dists`` holds each row's distance to its ball's centre.
    Returns ``ok`` (k,), False where one side ends up empty (coincident
    members); the rows of the ok balls, each ball's first child before its
    second, members still ascending; and the child sizes and fit, in the
    order a0, b0, a1, b1, ...
    """
    p1, p2 = farthest_pairs(pts, sizes, dists)
    seg = segments(sizes)[1]
    c1 = (centers + pts.take(p1, axis=0)) / 2.0
    c2 = (centers + pts.take(p2, axis=0)) / 2.0
    to_a = (distances(pts, np.repeat(c1, sizes, axis=0))
            <= distances(pts, np.repeat(c2, sizes, axis=0)))
    n_a = np.bincount(seg, weights=to_a, minlength=sizes.size).astype(np.int64)
    ok = (n_a > 0) & (n_a < sizes)
    keep = ok[seg]
    rows = np.flatnonzero(keep)[np.argsort(seg[keep] * 2 + ~to_a[keep], kind="stable")]
    child_sizes = np.column_stack((n_a[ok], sizes[ok] - n_a[ok])).ravel()
    return (ok, rows, child_sizes) + fit_segments(pts.take(rows, axis=0), child_sizes)


def split_once(dataset: Dataset, ball: GranularBall):
    """Split a ball in a single assignment pass (see ``_split``).

    Returns the two fitted children, or None when one side ends up empty
    (coincident members).
    """
    if ball.size < 2:
        raise ValueError("cannot split a ball with fewer than 2 members")
    pts = dataset.points.take(ball.members, axis=0)
    ok, rows, sizes, centers, _, radii, sums = _split(
        pts, np.array([ball.size]), ball.center[None], distances(pts, ball.center))
    if not ok[0]:
        return None
    members = np.split(ball.members[rows], sizes[:1])
    return tuple(GranularBall.from_fit(members[i], centers[i], radii[i], sums[i]) for i in (0, 1))


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


def generate_balls(dataset: Dataset, config: DivisionConfig | None = None,
                   trace: DivisionTrace | None = None) -> BallSet:
    """Divide a dataset into granular balls.

    Returns a BallSet whose member sets partition the dataset.  Singleton
    balls are flagged as noise; overlap counts are left zeroed for the
    differentiation stage.  Pass a DivisionTrace to observe per-round
    progress, the round-cap warning flag and why refinement stopped.

    Each round splits all of its balls at once, on arrays.  A list of balls
    is a run of point indices per ball, members ascending, plus per-ball
    sizes, centres, radii and distance sums; every point keeps its distance
    to its ball's centre, so each ball is fitted once.
    """
    if config is None:
        config = DivisionConfig()
    if trace is None:
        trace = DivisionTrace()
    points = dataset.points
    root = fit_ball(dataset, np.arange(len(dataset)))
    idx, sizes, centers = root.members, np.array([root.size]), root.center[None]
    radii, sums = np.array([root.radius]), np.array([root.sum_radius])
    dist = distances(points, root.center)

    # Phase 1: quality-driven splitting.  Each ball is examined once; a ball
    # whose split fails or is rejected is final, its children otherwise
    # re-enter the queue.  Final balls keep the order of the per-ball loop
    # that defines the method, since phase 2's mean radius sums in it.
    final = []  # per round: (members, their distances, sizes, centres, radii, sums)
    while sizes.size:
        seg = segments(sizes)[1]
        big = sizes >= config.min_split_size
        rows, tried = big[seg], np.flatnonzero(big)
        ok, child_rows, c_sizes, c_centers, c_dist, c_radii, c_sums = _split(
            points.take(idx[rows], axis=0), sizes[tried], centers.take(tried, axis=0), dist[rows])
        parent_ad = sums[tried[ok]] / sizes[tried[ok]]
        child_ad = (c_sums / c_sizes).reshape(-1, 2)
        better = should_split(parent_ad, child_ad[:, 0], child_ad[:, 1])
        trace.accepted_splits.extend(zip(parent_ad[better].tolist(), *child_ad[better].T.tolist()))
        split = np.zeros(sizes.size, dtype=bool)
        split[tried[ok][better]] = True
        stay = ~split[seg]
        final.append((idx[stay], dist[stay], sizes[~split], centers.compress(~split, axis=0),
                      radii[~split], sums[~split]))
        moved = np.repeat(better, c_sizes[::2] + c_sizes[1::2])
        kids = np.repeat(better, 2)
        idx, dist = idx[rows][child_rows][moved], c_dist[moved]
        sizes, centers = c_sizes[kids], c_centers.compress(kids, axis=0)
        radii, sums = c_radii[kids], c_sums[kids]
        trace.rounds.append(RoundStats("divide", sum(f[2].size for f in final) + sizes.size,
                                       int(better.sum()), 0))
        trace._snapshot([f[0] for f in final] + [idx], [f[2] for f in final] + [sizes])
    order, dist, sizes, centers, radii, sums = (np.concatenate(a) for a in zip(*final))

    # Phase 2: force-split oversized balls, recomputing the radius statistics
    # each round because splits shift the mean and median.  Children take
    # their parent's place, in the list and in ``order``.
    trace.stop_reason = "converged"
    rounds = 0
    while True:
        oversized = detect_oversized(radii)
        if not oversized.size:
            break
        if rounds >= config.max_refinement_rounds:
            trace.round_cap_hit = True
            trace.stop_reason = "round_cap"
            warnings.warn("ball refinement hit the round cap with oversized balls remaining",
                          RuntimeWarning, stacklevel=2)
            break
        rounds += 1
        pos = np.flatnonzero(np.repeat(np.isin(np.arange(sizes.size), oversized), sizes))
        ok, child_rows, c_sizes, c_centers, c_dist, c_radii, c_sums = _split(
            points.take(order[pos], axis=0), sizes[oversized], centers.take(oversized, axis=0),
            dist[pos])
        split_pos = pos[np.repeat(ok, sizes[oversized])]
        order[split_pos], dist[split_pos] = order[pos][child_rows], c_dist
        copies = np.ones(sizes.size, dtype=np.int64)
        copies[oversized[ok]] = 2
        first = (np.cumsum(copies) - copies)[oversized[ok]]
        slots = np.column_stack((first, first + 1)).ravel()
        tables = [np.repeat(a, copies, axis=0) for a in (sizes, centers, radii, sums)]
        for table, children in zip(tables, (c_sizes, c_centers, c_radii, c_sums)):
            table[slots] = children
        sizes, centers, radii, sums = tables
        trace.rounds.append(RoundStats("refine", sizes.size, int(ok.sum()), oversized.size))
        trace._snapshot([order], [sizes])
        if not ok.all():
            trace.stop_reason = "split_failed"  # degenerate ball; kept as-is
            break

    # Balls are numbered by their smallest member; the stable sort keeps
    # members ascending within each ball.
    by = np.argsort(order[segments(sizes)[0]])
    order = order[np.argsort(np.repeat(np.argsort(by), sizes), kind="stable")]
    return BallSet(order=order, sizes=sizes[by], centers=centers.take(by, axis=0), radii=radii[by],
                   sum_radius=sums[by])
