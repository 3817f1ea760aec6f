"""Core types and primitive ball computations."""

import math

import numpy as np
import pytest

from gbcluster import division
from gbcluster.core import (ClusterAssignment, Dataset, distances, first_argmax, fit_ball,
                            fit_segments, squared_distances)
from gbcluster.division import split_once


def test_dataset_validation():
    ds = Dataset(points=[[1.0, 2.0], [3.0, 4.0]])
    assert ds.dim == 2 and len(ds) == 2
    with pytest.raises(ValueError):
        Dataset(points=np.empty((0, 2)))
    with pytest.raises(ValueError):
        Dataset(points=[[1.0, np.inf]])
    with pytest.raises(ValueError):
        Dataset(points=[[1.0, 2.0]], labels=[0, 1])


def test_cluster_assignment_invariants():
    a = ClusterAssignment(labels=[-1, 0, 1, 1, -1])
    assert a.cluster_count == 2
    assert a.noise_count == 2
    with pytest.raises(ValueError):
        ClusterAssignment(labels=[0, 2])  # gap in cluster ids
    with pytest.raises(ValueError):
        ClusterAssignment(labels=[1, 2])  # must start at 0
    with pytest.raises(ValueError):
        ClusterAssignment(labels=[-1, 0, 1, 3, 1])  # gap after the first ids
    with pytest.raises(ValueError):
        ClusterAssignment(labels=[0, 10 ** 12])  # gap wider than the labels
    with pytest.raises(ValueError):
        ClusterAssignment(labels=[-2, 0, 1])  # below the noise label
    noise = ClusterAssignment(labels=[-1, -1, -1])
    assert (noise.cluster_count, noise.noise_count) == (0, 3)
    assert ClusterAssignment(labels=np.empty(0)).cluster_count == 0


def _avg_distance(ball):
    """The quality measure of a one-ball BallSet."""
    return ball.sum_radius[0] / ball.sizes[0]


def test_fit_ball_singleton():
    ds = Dataset(points=[[1.0, 2.0]])
    b = fit_ball(ds, [0])
    assert len(b) == 1 and b.order.tolist() == [0] and b.noise_ball_flags.tolist() == [True]
    assert np.array_equal(b.centers[0], [1.0, 2.0])
    assert b.radii[0] == 0.0
    assert _avg_distance(b) == 0.0


def test_fit_ball_symmetric_pair():
    ds = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
    b = fit_ball(ds, [0, 1])
    assert np.array_equal(b.centers[0], [1.0, 0.0])
    assert b.radii[0] == 1.0
    assert b.sum_radius[0] == 2.0
    assert _avg_distance(b) == 1.0


def test_fit_ball_unit_square():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = fit_ball(ds, range(4))
    assert np.allclose(b.centers[0], [0.5, 0.5])
    assert b.radii[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert _avg_distance(b) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_fit_ball_rejects_bad_members():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        fit_ball(ds, [])
    with pytest.raises(ValueError):
        fit_ball(ds, [2])
    with pytest.raises(ValueError):
        fit_ball(ds, [-1])


def test_fit_ball_refit_is_bitwise_stable():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        ds = Dataset(points=rng.normal(0, 1, size=(n, int(rng.integers(1, 4)))))
        lo = int(rng.integers(0, n))
        for members in (rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False),
                        np.arange(lo, int(rng.integers(lo + 1, n + 1)))):  # sliced, not gathered
            b1 = fit_ball(ds, members)
            b2 = fit_ball(ds, b1.order)
            assert np.array_equal(b1.centers, b2.centers)
            assert b1.radii[0] == b2.radii[0]
            assert b1.sum_radius[0] == b2.sum_radius[0]
            assert _avg_distance(b1) == _avg_distance(b2)
            centers, _, radii, sums = fit_segments(ds.points.take(b1.order, axis=0).T.copy(),
                                                   b1.sizes)
            assert np.array_equal(b1.centers, centers.T)
            assert (b1.radii[0], b1.sum_radius[0]) == (radii[0], sums[0])


def test_ball_geometry_invariants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        ds = Dataset(points=rng.uniform(-5, 5, size=(n, 2)))
        b = fit_ball(ds, range(n))
        dists = np.sqrt(((ds.points[b.order] - b.centers[0]) ** 2).sum(axis=1))
        assert dists.max() <= b.radii[0] + 1e-12
        assert _avg_distance(b) <= b.radii[0] + 1e-12


def test_average_distance_examples():
    single = Dataset(points=[[3.0, 4.0]])
    assert _avg_distance(fit_ball(single, [0])) == 0.0
    pair = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
    assert _avg_distance(fit_ball(pair, [0, 1])) == 1.0
    collinear = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert _avg_distance(fit_ball(collinear, [0, 1, 2])) == pytest.approx(2.0 / 3.0, rel=1e-12)


def _seeds(ds, ball):
    """The split seeds of a one-ball BallSet, as point indices, from
    ``division._sides`` on its one segment: p1 is the offset it is handed,
    p2 the one ``first_argmax`` call it makes, recorded."""
    pts = ds.points[ball.order].T.copy()
    far = first_argmax(distances(pts, ball.centers.T), np.array([0]), ball.sizes)
    found, kernel = [], division.first_argmax

    def recorded(*args):
        found.append(kernel(*args))
        return found[-1]

    division.first_argmax = recorded
    try:
        division._sides(pts, far, ball.sizes, ball.centers.T)
    finally:
        division.first_argmax = kernel
    (p2,), = found
    return int(ball.order[far[0]]), int(ball.order[p2])


def test_farthest_pair_seed_collinear_tiebreak():
    # |0-5| == |10-5|, so the tie at distance 5 resolves to the lower index
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 0.0]])
    assert _seeds(ds, fit_ball(ds, range(4))) == (0, 3)


def test_farthest_pair_seed_two_points():
    ds = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
    assert _seeds(ds, fit_ball(ds, [0, 1])) == (0, 1)


def test_farthest_pair_seed_equilateral():
    # all three vertices tie exactly at 1/sqrt(3) from the centroid
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    ball = fit_ball(ds, range(3))
    d = np.sqrt(((ds.points - ball.centers[0]) ** 2).sum(axis=1))
    assert d[0] == d[1] == d[2]
    p1, p2 = _seeds(ds, ball)
    assert p1 == 0
    assert p2 in (1, 2)


def test_farthest_pair_seed_needs_two_members():
    # a one-member segment seeds itself twice, so no split could separate
    # the seeds: split_once refuses such a ball up front
    ds = Dataset(points=[[0.0, 0.0], [1.0, 1.0]])
    assert _seeds(ds, fit_ball(ds, [1])) == (1, 1)
    with pytest.raises(ValueError):
        split_once(ds, fit_ball(ds, [1]))


def _in_order(squares):
    """Sum over the last axis, one coordinate after another."""
    acc = squares[..., 0].copy()
    for j in range(1, squares.shape[-1]):
        acc += squares[..., j]
    return acc


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15, 16, 17, 32, 64, 128, 129, 200])
def test_distances_bit_equal_to_row_sum(d):
    # Coordinates lead: rows (d, n), rows against a centre table, and tiles
    # (d, B, 1) against (d, 1, W) give the bits of the squares of the
    # row-major (n, d) equivalents added in coordinate order.  Under 8
    # coordinates that is also ((p - t) ** 2).sum(axis=-1).
    rng = np.random.default_rng(d)
    n = 3_000
    scale = rng.choice([1e-300, 1e-3, 1.0, 1e12], size=(2, n, d))
    pts, rows = rng.normal(size=(2, n, d)) * scale
    pts[rng.uniform(size=(n, d)) < 0.05] = -0.0
    rows[rng.uniform(size=(n, d)) < 0.05] = 0.0
    lead = np.ascontiguousarray(pts.T)
    for to in (rows, rows[:1], np.full((1, d), -0.0)):
        squared = _in_order((pts - to) ** 2)
        if d < 8:
            assert squared.tobytes() == ((pts - to) ** 2).sum(axis=1).tobytes()
        assert distances(lead, np.ascontiguousarray(to.T)).tobytes() == np.sqrt(squared).tobytes()
    # rows against a table of centres, centre i serving the next sizes[i] rows
    table, sizes = rows[:40], rng.multinomial(n, np.full(40, 1 / 40))
    reference = np.sqrt(_in_order((pts - np.repeat(table, sizes, axis=0)) ** 2))
    assert distances(lead, np.ascontiguousarray(table.T), sizes).tobytes() == reference.tobytes()
    # tiles, as the geometry pass and noise attachment use them
    for b, w in ((37, 53), (1, 40), (40, 1), (300, 200)):
        p, t = pts[:b, None], rows[n - w:][None]
        squared = _in_order((p - t) ** 2)
        p, t = np.moveaxis(p, -1, 0), np.moveaxis(t, -1, 0)
        assert squared_distances(p, t).tobytes() == squared.tobytes()
        assert squared_distances(t.transpose(0, 2, 1), p.transpose(0, 2, 1)).tobytes() == squared.T.tobytes()
        assert distances(p, t).tobytes() == np.sqrt(squared).tobytes()
