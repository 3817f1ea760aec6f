"""Reference code that the tests share: oracles written one scalar at a
time, a per-ball fit and split, ball sets built straight from arrays, and a
recorder of the splits that division accepts."""

import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from gbcluster import division
from gbcluster.core import BallSet
from gbcluster.differentiation import _pairwise_center_distances, merge_adjacent, tau


class Ball(NamedTuple):
    """One ball of ``fit``: its members, ascending, centre (d,), member
    distances, radius and distance sum."""
    members: np.ndarray
    center: np.ndarray
    dists: np.ndarray
    radius: float
    total: float


def _squares(x, to):
    """Squared distances of the rows of x (n, d) to the point ``to``, added in
    coordinate order."""
    return sum((x[:, j] - to[j]) ** 2 for j in range(x.shape[1]))


def fit(points, members):
    """The ball of ``members`` (ascending) of points (n, d), with division's
    reductions: a sum over x[s:e] is x[s] + x[s+1:e].sum(), one coordinate
    at a time."""
    x = points[members]
    center = np.array([(col[0] + col[1:].sum()) / len(col) for col in x.T])
    dists = np.sqrt(_squares(x, center))
    return Ball(members, center, dists, dists.max(), dists[0] + dists[1:].sum())


def split(points, ball):
    """The two fitted children of ``ball``, or None when one side is empty.

    Seed p1 is the first member farthest from the centre c, p2 the first
    farthest from p1 by squared distance; member x joins child a when
    |x - p1|² - |x - p2|² <= (|c - p1|² - |c - p2|²) / 2.
    """
    x = points[ball.members]
    p1 = x[np.argmax(ball.dists)]
    to_p1 = _squares(x, p1)
    p2 = x[np.argmax(to_p1)]
    cut = (_squares(ball.center[None], p1)[0] - _squares(ball.center[None], p2)[0]) / 2
    to_a = to_p1 - _squares(x, p2) <= cut
    if to_a.all() or not to_a.any():
        return None
    return fit(points, ball.members[to_a]), fit(points, ball.members[~to_a])


def array_ballset(centers, radii, noise, sizes=5):
    """Balls of (unused) points, straight from arrays: a noise ball has one
    member, the others five each unless ``sizes`` says."""
    m = len(radii)
    noise = np.asarray(noise, bool)
    sizes = np.where(noise, 1, np.broadcast_to(np.asarray(sizes, np.int64), m))
    assert (noise == (sizes == 1)).all()  # a live ball of one member would be noise
    return BallSet(order=np.arange(sizes.sum()), sizes=sizes, centers=np.asarray(centers, float),
                   radii=np.asarray(radii, float), sum_radius=np.zeros(m))


def adjacent(bs, i, j):
    """The adjacency predicate on balls i and j of bs, one scalar at a time: the
    surface gap, its squares added in coordinate order, below tau."""
    sq = 0.0
    for a, b in zip(bs.centers[i].tolist(), bs.centers[j].tolist()):
        sq += (a - b) * (a - b)
    r_i, r_j = float(bs.radii[i]), float(bs.radii[j])
    return math.sqrt(sq) - (r_i + r_j) < tau(r_i, r_j, int(bs.overlap_counts[i]),
                                             int(bs.overlap_counts[j]))


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
