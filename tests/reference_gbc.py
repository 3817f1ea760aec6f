"""The reference pipeline that the tests share: the method's two stages
written once, as plainly as they can be (division one ball at a time, the
geometry over all pairs of balls), in the float order of ``gbcluster``, so
that the results compare bit for bit; also ball sets built from arrays and
a recorder of accepted splits.  A change to the method's behaviour edits
this module and the code together."""

import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from gbcluster import division
from gbcluster.core import NOISE, BallSet
from gbcluster.differentiation import _pairwise_center_distances, merge_adjacent
from gbcluster.division import RoundStats


class Ball(NamedTuple):
    """One ball of ``fit``: its members, ascending, centre (d,), member
    distances, radius and distance sum."""
    members: np.ndarray
    center: np.ndarray
    dists: np.ndarray
    radius: float
    total: float


def squares(x, y):
    """Squared distances of x and y, (..., d) arrays that broadcast, the
    squares added in coordinate order."""
    return sum(((x[..., j] - y[..., j]) ** 2 for j in range(1, x.shape[-1])), (x[..., 0] - y[..., 0]) ** 2)


def fit(points, members):
    """The ball of ``members`` (ascending) of points (n, d), with division's
    reductions: a sum over x[s:e] is x[s + 1:e].sum(initial=x[s]), one
    coordinate at a time."""
    x = points[members]
    center = np.array([col[1:].sum(initial=col[0]) / len(col) for col in x.T])
    dists = np.sqrt(squares(x, center))
    return Ball(members, center, dists, dists.max(), dists[1:].sum(initial=dists[0]))


def split(points, ball):
    """The two fitted children of ``ball``, or None when one side is empty.

    Seed p1 is the first member farthest from the centre c, p2 the first
    farthest from p1 by squared distance; member x joins child a when
    |x - p1|² - |x - p2|² <= (|c - p1|² - |c - p2|²) / 2.
    """
    x = points[ball.members]
    p1 = x[np.argmax(ball.dists)]
    to_p1 = squares(x, p1)
    p2 = x[np.argmax(to_p1)]
    to_a = to_p1 - squares(x, p2) <= (squares(ball.center, p1) - squares(ball.center, p2)) / 2
    if to_a.all() or not to_a.any():
        return None
    return fit(points, ball.members[to_a]), fit(points, ball.members[~to_a])


class Division(NamedTuple):
    """What ``divide`` gives: the final balls and, after each round, the
    member arrays of every ball, both by least member; a RoundStats per
    round, as DivisionTrace holds them; why refinement stopped; and the
    (parent, child a, child b) average distances of every split that phase
    1 accepts, in the order it decides them, as ``accepted_splits`` records
    them."""
    balls: list
    snapshots: list
    rounds: list
    stop_reason: str
    splits: list


def divide(points):
    """Division of points (n, d) one ball at a time, as the method states it.
    Phase 1 is a queue: a ball of at least ``MIN_SPLIT_SIZE`` members is
    split, and its children join the back of the queue when both have a
    smaller average distance than it; every other ball is final.  A round
    is one pass over the queue as it stood.  Phase 2 is a list: each ball
    whose radius exceeds 2 * max(mean, median) of the list's radii (the
    mean summed in ascending order) is replaced in place by its children,
    until none is left, a split fails or ``MAX_REFINEMENT_ROUNDS`` rounds
    have run."""
    def by_least_member(balls):
        return sorted(balls, key=lambda ball: ball.members[0])

    snapshots, rounds, splits, final, queue = [], [], [], [], [fit(points, np.arange(len(points)))]
    while queue:
        pending = []
        for ball in queue:
            kids = split(points, ball) if ball.members.size >= division.MIN_SPLIT_SIZE else None
            ad = [b.total / b.members.size for b in (ball, *(kids or ()))]
            if kids and ad[1] < ad[0] and ad[2] < ad[0]:
                splits.append(tuple(ad))
                pending += kids
            else:
                final.append(ball)
        queue = pending
        rounds.append(RoundStats("divide", len(final) + len(queue), len(queue) // 2, 0))
        snapshots.append([b.members for b in by_least_member(final + queue)])
    balls, stop_reason = final, "converged"
    while True:
        radii = np.array([b.radius for b in balls])
        over = np.flatnonzero(radii > 2 * max(np.sort(radii).mean(), np.median(radii)))
        if not over.size:
            break
        if sum(r.phase == "refine" for r in rounds) == division.MAX_REFINEMENT_ROUNDS:
            stop_reason = "round_cap"
            break
        kids = {i: split(points, balls[i]) for i in over}
        balls = [part for i, ball in enumerate(balls) for part in kids.get(i) or [ball]]
        rounds.append(RoundStats("refine", len(balls), sum(k is not None for k in kids.values()), over.size))
        snapshots.append([b.members for b in by_least_member(balls)])
        if any(k is None for k in kids.values()):
            stop_reason = "split_failed"
            break
    return Division(by_least_member(balls), snapshots, rounds, stop_reason, splits)


class Sweep(NamedTuple):
    """What ``sweep`` gives: each ball's overlap count; the lowest ball
    that chains of overlapping pairs join it to; the pairs i < j within
    reach that do not overlap (k, 2), ascending, and their gaps
    fl(d - fl(r_i + r_j)); and (noise ball, gap fl(d - r_live), live ball)
    for every noise and live ball whose gap is within the mean live radius,
    ascending by noise ball, then live ball."""
    counts: np.ndarray
    root: np.ndarray
    kept: np.ndarray
    gaps: np.ndarray
    noise: tuple


def _components(adj):
    """Per node, the lowest node that chains of the edges of the symmetric
    boolean matrix adj join it to: a breadth-first search from each node not
    yet reached, in index order."""
    root = np.full(len(adj), -1)
    for start in range(len(adj)):
        if root[start] < 0:
            root[start], frontier = start, [start]
            while frontier:
                reached = np.flatnonzero(adj[frontier].any(axis=0) & (root < 0))
                root[reached], frontier = start, reached.tolist()
    return root


def sweep(bs):
    """The geometry of the balls of bs over all pairs.  Two live balls
    overlap when d < r_i + r_j, which is exactly gap < 0, and are within
    reach when their gap is below min(r_i, r_j); noise balls take part only
    as noise balls near live ones."""
    c, r, alone = bs.centers, bs.radii, bs.noise_ball_flags
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt(squares(c[:, None], c[None]))
        overlap = dist < r[:, None] + r[None]
        gap = dist - (r[:, None] + r[None])
        near = gap < np.minimum(r[:, None], r[None])
        noise_gap = dist - r[None]
    assert np.array_equal(overlap, gap < 0)
    live = ~alone[:, None] & ~alone[None]
    overlap &= live & ~np.eye(len(r), dtype=bool)
    kept = np.argwhere(np.triu(near & live & ~overlap, 1))
    r_mean = r[~alone].mean() if (~alone).any() else 0.0
    noise, ball = np.nonzero(alone[:, None] & ~alone[None] & (noise_gap <= r_mean))
    return Sweep(overlap.sum(axis=1), _components(overlap), kept, gap[tuple(kept.T)],
                 (noise, noise_gap[noise, ball], ball))


def adjacent_kept(bs, s):
    """The kept pairs of sweep s that tau joins: gap < min(r_i, r_j) /
    (1 + min(o_i, o_j)), with the overlap counts of s."""
    (i, j), r, o = s.kept.T, bs.radii, s.counts
    return s.kept[s.gaps < np.minimum(r[i], r[j]) / (1 + np.minimum(o[i], o[j]))]


def merge(bs, s):
    """Cluster id per ball: the components of the overlapping and the
    tau-adjacent pairs of live balls, numbered in order of their lowest ball;
    noise balls get -1."""
    m, live = len(bs), ~bs.noise_ball_flags
    adj = np.zeros((m, m), dtype=bool)
    adj[np.arange(m), s.root] = True
    adj[tuple(adjacent_kept(bs, s).T)] = True
    ids = np.full(m, NOISE)
    ids[live] = np.unique(_components(adj | adj.T)[live], return_inverse=True)[1]
    return ids


def attach(bs, ids, s):
    """Per-point labels from cluster ids per ball: each noise ball joins the
    cluster of its near live ball with the least gap, ties to the lowest
    ball index, and is noise when it has none."""
    ids = np.where(bs.noise_ball_flags, NOISE, ids)
    noise, gaps, ball = s.noise
    for p in np.unique(noise):
        mine = noise == p
        ids[p] = ids[ball[mine][np.argmin(gaps[mine])]]
    labels = np.full(bs.sizes.sum(), NOISE)
    labels[bs.order] = np.repeat(ids, bs.sizes)
    return labels


def cluster(points):
    """The whole method on points (n, d): the labels; the balls, by least
    member, as a BallSet with their overlap counts; and what ``divide``
    gave.  Points beyond [2**-256, 2**256] are divided and swept scaled by
    a power of two, which is exact, and the balls' geometry is scaled back."""
    top = max(float(points.max()), -float(points.min()))
    exp = math.frexp(top)[1] if top > 2.0 ** 256 or 0 < top < 2.0 ** -256 else 0
    div = divide(np.ldexp(points, -exp))
    members, centers, _, radii, totals = zip(*div.balls)
    bs = BallSet(order=np.concatenate(members), sizes=np.array([m.size for m in members]),
                 centers=np.array(centers), radii=np.array(radii), sum_radius=np.array(totals))
    s = sweep(bs)
    bs.overlap_counts = s.counts
    labels = attach(bs, merge(bs, s), s)
    with np.errstate(over="ignore"):
        bs.centers, bs.radii, bs.sum_radius = (np.ldexp(a, exp)
                                               for a in (bs.centers, bs.radii, bs.sum_radius))
    return labels, bs, div


def array_ballset(centers, radii, noise, sizes=5):
    """Balls of (unused) points, straight from arrays: a noise ball has one
    member, the others five each unless ``sizes`` says."""
    m = len(radii)
    noise = np.asarray(noise, bool)
    sizes = np.where(noise, 1, np.broadcast_to(np.asarray(sizes, np.int64), m))
    assert (noise == (sizes == 1)).all()  # a live ball of one member would be noise
    return BallSet(order=np.arange(sizes.sum()), sizes=sizes, centers=np.asarray(centers, float),
                   radii=np.asarray(radii, float), sum_radius=np.zeros(m))


def pair_adjacent(ball_i, ball_j, o_i, o_j):
    """Whether merge_adjacent joins two live balls, each (centre, radius, ...),
    whose overlap counts are set to (o_i, o_j)."""
    (c_i, r_i, *_), (c_j, r_j, *_) = ball_i, ball_j
    bs = array_ballset([c_i, c_j], [r_i, r_j], [False, False])
    bs.overlap_counts = np.array([o_i, o_j])
    ids = merge_adjacent(bs, _pairwise_center_distances(bs)).tolist()
    assert ids in ([0, 0], [0, 1])
    return ids == [0, 0]


@contextmanager
def accepted_splits():
    """The list of the (parent, child a, child b) average distances of every
    split that division's quality rule accepts while the block runs, in the
    order generate_balls decides them.

    It wraps ``division.should_split``, which generate_balls looks up at each
    call; code that imported the function itself calls it unrecorded.
    """
    splits, rule = [], division.should_split

    def recorded(parent_ad, child_a_ad, child_b_ad):
        better = rule(parent_ad, child_a_ad, child_b_ad)
        splits.extend(zip(*(np.asarray(ad)[better].tolist()
                            for ad in (parent_ad, child_a_ad, child_b_ad))))
        return better

    division.should_split = recorded
    try:
        yield splits
    finally:
        division.should_split = rule
