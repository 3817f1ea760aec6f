"""Ball division: the split step, the quality rule, and the full loop."""

import hashlib
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbcluster import division
from gbcluster.core import Dataset, fit_ball, fit_segments
from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate
from gbcluster.division import (DivisionTrace, _partition, detect_oversized, generate_balls,
                                should_split, split_once)
import reference_gbc
from reference_gbc import accepted_splits

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import blob_points  # noqa: E402


def _members(bs):
    """Member index arrays of the balls of a BallSet, in ball order."""
    return np.split(bs.order, np.cumsum(bs.sizes)[:-1])


def test_split_once_collinear_hand_trace():
    # center x=5; seeds are x=0 (tie-break) and x=10; midpoints 2.5 and 7.5
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 0.0]])
    kids = split_once(ds, fit_ball(ds, range(4)))
    assert len(kids) == 2
    a, b = _members(kids)
    assert a.tolist() == [0, 1]
    assert np.allclose(kids.centers[0], [0.5, 0.0]) and kids.radii[0] == 0.5
    assert b.tolist() == [2, 3]
    assert np.allclose(kids.centers[1], [9.5, 0.0]) and kids.radii[1] == 0.5


def test_split_once_member_equidistant_from_both_midpoints_joins_child_a():
    # center x=2; seeds x=0 (tie-break) and x=4; midpoints 1 and 3 are both
    # exactly 1 from the member at x=2, which goes to the first child
    ds = Dataset(points=[[0.0], [2.0], [4.0]])
    a, b = _members(split_once(ds, fit_ball(ds, range(3))))
    assert a.tolist() == [0, 1]
    assert b.tolist() == [2]


def test_split_once_two_points_gives_singletons():
    ds = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
    kids = split_once(ds, fit_ball(ds, [0, 1]))
    assert kids.sizes.tolist() == [1, 1]
    assert kids.radii.tolist() == [0.0, 0.0]


def test_split_once_coincident_points_fails():
    ds = Dataset(points=[[1.0, 1.0]] * 4)
    assert split_once(ds, fit_ball(ds, range(4))) is None


def test_split_once_needs_two_members():
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    with pytest.raises(ValueError):
        split_once(ds, fit_ball(ds, [0]))
    # only a BallSet of one ball: not the two children, nor a bare member list
    with pytest.raises(ValueError):
        split_once(ds, split_once(ds, fit_ball(ds, range(3))))
    with pytest.raises(ValueError):
        split_once(ds, [0, 1, 2])


def test_split_once_runs_the_division_kernels():
    # the root split of moons1k is accepted: its children are the first
    # round's balls, listed by least member, and their average distances the
    # first accepted split
    ds = generate(BUNDLED_DATASETS["moons1k"])
    trace = DivisionTrace(capture_partitions=True)
    with accepted_splits() as splits:
        generate_balls(ds, trace=trace)
    root = fit_ball(ds, range(len(ds)))
    kids = split_once(ds, root)
    assert sorted(m.tolist() for m in _members(kids)) == [m.tolist() for m in trace.partitions[0]]
    split = (root.sum_radius[0] / root.sizes[0], *(kids.sum_radius / kids.sizes))
    assert np.array(split).tobytes() == np.array(splits[0]).tobytes()


@pytest.mark.parametrize("parent, child_a, child_b, expected", [
    (0.326, 0.2, 0.1, True),   # both strictly better
    (0.5, 0.5, 0.1, False),    # non-strict improvement on one side
    (0.4, 0.0, 0.0, True),     # singleton children
    (0.0, 0.0, 0.0, False),
])
def test_should_split(parent, child_a, child_b, expected):
    assert should_split(parent, child_a, child_b) is expected
    assert should_split(np.array([parent]), np.array([child_a]),
                        np.array([child_b])).tolist() == [expected]


def test_detect_oversized():
    # mean 3.25, median 1 -> threshold 6.5
    assert detect_oversized([1, 1, 1, 10]).tolist() == [3]
    # mean 4/3, median 1 -> threshold 8/3
    assert detect_oversized([1, 1, 2]).tolist() == []
    assert detect_oversized([2, 2, 2]).tolist() == []
    # even count: median is the average of the middle two (2.5 here)
    assert detect_oversized([1, 2, 3, 10]).tolist() == [3]
    with pytest.raises(ValueError):
        detect_oversized([])
    # Random radii, odd and even counts, with ties; one radius sits exactly
    # at the threshold, where a mean summed in another order or a median one
    # ulp off would move it across.  A permutation of the radii permutes the
    # indices it flags.
    rng = np.random.default_rng(24)
    by_mean = by_median = 0
    for trial in range(400):
        n = int(rng.integers(20, 80))
        if trial % 2:  # the mean decides: the extra radius is twice it
            radii = _with_twice_the_mean(np.round(np.abs(rng.standard_cauchy(n)), trial % 3 + 1))
            threshold = radii[-1]
            if threshold <= 2 * np.median(radii):
                continue
            by_mean += 1
        else:  # the median decides: two radii just at and just over twice np.median
            radii = np.round(rng.uniform(1.0, 1.2, n), trial % 3 + 1)
            radii[:n * 3 // 10] = 0.0  # they pull the mean below the median
            threshold = 2 * np.median(np.append(radii, [np.inf, np.inf]))
            radii = np.append(radii, [threshold, np.nextafter(threshold, np.inf)])
            assert np.median(radii) * 2 == threshold > 2 * radii.mean()
            by_median += 1
        want = np.flatnonzero(radii > threshold)
        assert detect_oversized(radii).tolist() == want.tolist()
        order = rng.permutation(radii.size)
        assert detect_oversized(radii[order]).tolist() == np.flatnonzero(np.isin(order, want)).tolist()
    assert by_mean >= 150 and by_median == 200


def _with_twice_the_mean(radii):
    """``radii`` and one more, twice the mean of them all summed in ascending order."""
    x = 2 * radii.sum() / (radii.size - 1)
    for _ in range(60):
        with_x = np.append(radii, x)
        x, last = 2 * np.sort(with_x).mean(), x
        if x == last:
            return with_x
    raise AssertionError("no radius is twice the mean")


def test_generate_balls_identical_points():
    ds = Dataset(points=[[2.0, 2.0]] * 50)
    bs = generate_balls(ds)
    assert len(bs) == 1
    assert bs.radii[0] == 0.0
    assert not bs.noise_ball_flags.any()  # 50 members, not a singleton


def test_generate_balls_single_point_is_noise_ball():
    bs = generate_balls(Dataset(points=[[0.0, 0.0]]))
    assert len(bs) == 1 and bs.noise_ball_flags.tolist() == [True]


def test_generate_balls_partitions_dataset():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    bs = generate_balls(ds)
    assert np.array_equal(np.sort(bs.order), np.arange(len(ds)))


def test_generate_balls_separated_blobs_are_pure():
    from gbcluster.data import GeneratorSpec
    spec = GeneratorSpec(family="blobs", n=400, seed=4,
                         centers=((0.0, 0.0), (20.0, 0.0)), scales=(1.0, 1.0))
    ds = generate(spec)
    bs = generate_balls(ds)
    for members in _members(bs):
        assert np.unique(ds.labels[members]).size == 1


def test_generate_balls_moons_granularity_and_radius_rule():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    trace = DivisionTrace()
    bs = generate_balls(ds, trace=trace)
    m = len(bs)
    assert 10 <= m <= len(ds) // 10
    assert detect_oversized(bs.radii).size == 0
    assert not trace.round_cap_hit
    assert trace.stop_reason == "converged"


def test_accepted_splits_strictly_improve():
    ds = generate(BUNDLED_DATASETS["moons1k"])
    with accepted_splits() as splits:
        generate_balls(ds)
    assert splits
    for parent_ad, child_a_ad, child_b_ad in splits:
        assert child_a_ad < parent_ad
        assert child_b_ad < parent_ad


def test_accepted_splits_are_kept_only_in_a_trace_the_caller_passes(monkeypatch):
    # no trace keeps splits now, the run's own or the caller's; the recorder
    # sees the same splits, as many as the divide rounds count, and the same
    # balls come out with and without a caller's trace
    made = []

    class Kept(DivisionTrace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(division, "DivisionTrace", Kept)
    ds = generate(BUNDLED_DATASETS["blobs10k"])
    with accepted_splits() as plain_splits:
        plain = generate_balls(ds)
    assert len(made) == 1 and not hasattr(made[0], "accepted_splits")  # no trace keeps splits
    trace = DivisionTrace()
    with accepted_splits() as splits:
        traced = generate_balls(ds, trace)
    assert len(made) == 1
    divided = sum(r.split_count for r in trace.rounds if r.phase == "divide")
    assert len(splits) == divided > 0 and splits == plain_splits
    for field in ("order", "sizes", "centers", "radii", "sum_radius"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field))


def test_partition_holds_after_every_round():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 120))
        ds = Dataset(points=rng.normal(0, 1, size=(n, 2)))
        trace = DivisionTrace(capture_partitions=True)
        generate_balls(ds, trace=trace)
        for snapshot in trace.partitions:
            seen = np.concatenate(snapshot)
            assert np.array_equal(np.sort(seen), np.arange(n))


def _by_least_member(members):
    return sorted(members, key=lambda m: m[0])


def _reference_division(ds):
    """Division one ball at a time, as the method states it, with the fit and
    split of ``reference_gbc``; the member arrays of every ball after each
    round, listed by least member.

    Phase 1 is a queue: a ball of at least ``MIN_SPLIT_SIZE`` members is
    split, and its children join the back of the queue when both improve on
    its average distance; every other ball is final.  A round is one pass
    over the queue as it stood.  Phase 2 is a list: each ball that
    ``detect_oversized`` flags, on the list's radii, is replaced in place by
    its two children.
    """
    pts = ds.points
    snapshots, final, queue = [], [], [reference_gbc.fit(pts, np.arange(len(ds)))]
    while queue:
        pending = []
        for ball in queue:
            kids = (reference_gbc.split(pts, ball)
                    if ball.members.size >= division.MIN_SPLIT_SIZE else None)
            if kids is not None and should_split(ball.total / ball.members.size,
                                                 *(k.total / k.members.size for k in kids)):
                pending += kids
            else:
                final.append(ball)
        queue = pending
        snapshots.append(_by_least_member(b.members for b in final + queue))
    balls, rounds = final, 0
    while rounds < division.MAX_REFINEMENT_ROUNDS:
        over = detect_oversized([b.radius for b in balls]).tolist()
        if not over:
            break
        rounds += 1
        kids = {i: reference_gbc.split(pts, balls[i]) for i in over}
        balls = [part for i, b in enumerate(balls)
                 for part in ([b] if kids.get(i) is None else kids[i])]
        snapshots.append(_by_least_member(b.members for b in balls))
        if any(k is None for k in kids.values()):
            break
    return snapshots


def test_division_matches_the_per_ball_reference(monkeypatch):
    # The rounds' balls after every round, as splitting one ball at a time
    # gives them.
    rng = np.random.default_rng(19)
    refined = 0
    for trial in range(52):
        n, d = int(rng.integers(30, 601)), int(rng.choice([1, 2, 3, 8]))
        pts = rng.normal(size=(n, d))
        if trial % 2:  # wide tails, so that phase 2 has balls to split
            pts = rng.standard_cauchy(size=(n, d))
        if trial % 3 == 0:  # ties and duplicate points
            pts = np.round(pts, 1)
        if trial >= 40:  # integer grids, where distinct points tie in distance
            pts = rng.integers(0, 4, size=(n, d)).astype(float)
        ds = Dataset(points=pts)
        monkeypatch.setattr(division, "MIN_SPLIT_SIZE", int(rng.integers(2, 41)))
        trace = DivisionTrace(capture_partitions=True)
        generate_balls(ds, trace=trace)
        expected = _reference_division(ds)
        assert len(trace.partitions) == len(expected), trial
        for got, want in zip(trace.partitions, expected):
            assert [m.tolist() for m in got] == [m.tolist() for m in want], trial
        refined += trace.rounds[-1].phase == "refine"
    assert refined >= 10  # premise: phase 2 runs on a good share of the inputs


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e8])
def test_split_rule_is_stable_under_translation(shift):
    # The side test compares differences of squared distances, which keep
    # their digits under an offset.  The same rule as a linear form,
    # x·(c2 - c1) <= (|c2|² - |c1|²) / 2, loses them: it gave 46 balls here
    # at 1e8 and one at 1e12.
    pts = np.random.default_rng(5).normal(size=(20000, 2)) + shift
    assert len(generate_balls(Dataset(points=pts))) == 1858


def test_generate_balls_deterministic():
    ds = generate(BUNDLED_DATASETS["blobs5"])
    b1 = generate_balls(ds)
    b2 = generate_balls(ds)
    assert len(b1) == len(b2)
    for field in ("order", "sizes", "centers", "radii", "sum_radius"):
        assert np.array_equal(getattr(b1, field), getattr(b2, field))


def test_round_cap_warns(monkeypatch):
    ds = generate(BUNDLED_DATASETS["moons1k"])
    # premise: this dataset needs at least two refinement rounds
    full = DivisionTrace()
    generate_balls(ds, trace=full)
    assert sum(r.phase == "refine" for r in full.rounds) >= 2
    trace = DivisionTrace()
    monkeypatch.setattr(division, "MAX_REFINEMENT_ROUNDS", 1)
    with pytest.warns(RuntimeWarning):
        generate_balls(ds, trace=trace)
    assert trace.round_cap_hit
    assert trace.stop_reason == "round_cap"


def test_reused_trace_describes_the_last_run(monkeypatch):
    # a run that hits the round cap, then one that converges, on one trace
    ds = generate(BUNDLED_DATASETS["moons1k"])
    trace = DivisionTrace()
    with monkeypatch.context() as patch:
        patch.setattr(division, "MAX_REFINEMENT_ROUNDS", 1)
        with pytest.warns(RuntimeWarning):
            generate_balls(ds, trace=trace)
    assert (trace.round_cap_hit, trace.stop_reason) == (True, "round_cap")
    generate_balls(ds, trace=trace)
    assert (trace.round_cap_hit, trace.stop_reason) == (False, "converged")
    with pytest.raises(AttributeError):
        trace.round_cap_hit = True  # read from stop_reason, never set


def test_failed_split_stops_refinement():
    # Twenty copies of 0.1 between two exact groups: their centre rounds one
    # ulp off 0.1, so theirs is the one ball of radius above 0 and oversized,
    # but coincident members all fall on one side of the split.
    pts = np.repeat([0.0, 0.1, 5.0], 20)[:, None]
    trace = DivisionTrace()
    bs = generate_balls(Dataset(points=pts), trace=trace)
    assert trace.stop_reason == "split_failed"
    assert not trace.round_cap_hit
    assert detect_oversized(bs.radii).tolist() == [1] and bs.radii[1] > 0
    assert [m.tolist() for m in _members(bs)] == [list(range(k, k + 20)) for k in (0, 20, 40)]
    assert trace.rounds[-1].phase == "refine" and trace.rounds[-1].split_count == 0
    # Two far points 2 apart at 1e16, where both midpoints of the centre and a
    # seed round to one value: the seeds' distances still part them.
    pts = np.concatenate([np.linspace(0, 1, 30), [1e16, 1e16 + 2]])[:, None]
    bs = generate_balls(Dataset(points=pts), trace=trace)
    assert trace.stop_reason == "converged"
    assert [m.tolist() for m in _members(bs)[-2:]] == [[30], [31]]


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_EDGE_INPUTS = {
    "n=1": np.zeros((1, 2)),
    "identical": np.ones((50, 2)),
    "1-d": np.linspace(0, 1, 300)[:, None],
    "d=32": np.random.default_rng(0).normal(size=(500, 32)),
    "blobs-8d-5k": blob_points(5_000, 8).points,
}

# sha256 of (sizes and members as int64, centers, radii, sum_radius as float64)
# of the balls in generate_balls' order.  The member digests were computed
# before the round-batched division replaced the loop that fitted and split
# one ball at a time (the 8-d set's before division moved to coordinate-major
# arrays).  The centre, radius and distance-sum digests were re-recorded when
# segment sums became np.add.reduceat and squared distances in-order sums
# over coordinates; so were the 1-d input's members, where two points tie
# in exact arithmetic and the new bits break the tie the other way.
GOLDEN_BALLS = {
    "blobs-8d-5k": ("327cab28eb100a3251cabb766f5c660a2ba690e84bcfcbabef4f14a89b93a5a7",
                    "4b39aeaedfa89c7f0c05c050bace40def7d3f7daaf4dd1d6fb2f6a5e2aa25dc0",
                    "96d49fe7452d49104e5a16815fbbd32570a776db3a87f53cd0a3b5b95ef006bf",
                    "4a26638b15d8f58307dfdb5f4d14b69015b3d7214372e2c7ca9249c25a871c06"),
    "1-d": ("42789cfcfb5909b8e06ad684f9fc0c81983f84cc79c0b639c1f6e49efe1226cc",
            "152fc8863c206ece522c2973a46410a4cae08e8ad79d729462b690f47d106863",
            "3522097fa01ea7334390ba6d74a0d1bb616e3e0cb46cf3eae28dead47df1f5df",
            "8bd1f4591299ed2de97ede654cc83683eefdadef8e6d9b170f9418c4b17e873f"),
    "blobs10k": ("4abd84ee73561cb15473cd8d81ac4aef0b1c95120a6039405b67378a235b1843",
                 "eeef2384da010ffdb39ea37f8f11a3799009a18aa6d43c3038e64875338d9a70",
                 "bf1066ab416af2c979fc6579cbe034196bef9e05270be6a15ad01f40ba06b79c",
                 "9a01878524abc4f5a400bfc030266ae2d0038f0af2c68dc1ef45941d5ccdffb5"),
    "blobs5": ("887d2f2184d6fb896c96e66c8a0646a35f12537ba0d3b886141c28a36fd8f9c0",
               "3cb875174def402c9890df5757fd129debcb44cb378c427dfbfe7133d100c91e",
               "48f5258a196f39eac847f2b98a2a7ab624efee9bdf65d7ed7d0a0e73341e59a2",
               "fb43f98228c00bc9840410e45e870bd7de90f5c0dbeaeaa29baaa3f106233f85"),
    "circles3": ("143bce2d394a40fb532fafce1ebd0491d3ddc2d8b56254af52617a1990824271",
                 "10494bec9c8cb96f4a62ae144aaf2b74689aa0854b7443aec961b1efffac4e54",
                 "8146b43f00e8dcbcdda7b3809580601ab8f00006e0e497501d60c70fff1a01c8",
                 "43b78a336d5c33efeee994aebe3e735e0ee5189017d1dbefee1aeb0645af65ad"),
    "d=32": ("5b5e8dc911895e7adb786b32b48ab07bf8fbc852860f239c4ce9036048e90455",
             "73c196ced3258103586f2435c6e8f2984fd830e6039fc2322a03ab3d9fddf635",
             "7d1f5d7729b801d067054211e0e186f2235a61ec7f29c0cafd49f208d6ba3c5f",
             "58db3151c6f59115d1ef64e3b83b7216d234f1e0d011792b9bca494bd69887ea"),
    "identical": ("8653118acc059c327624129fc5fb3dba256769130658382280b6748080b8d2e4",
                  "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
                  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
                  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "moons1k": ("eab04e39b845e7c795b10971f5f494fa28bf794c82e03b9257080ff9bdbbbc04",
                "845d03be53e388eac093fe7b05797b18ff5f524c9b728ef40ea0165d2ca31c30",
                "4549e68c709912f8b0e1ac48baa3b38d8227cb0c3c6149dbebb542b2d125a42e",
                "fe1c19d5520406010665fc4f64cc39609f85c90feeb640d6ed061ce2bc01d0f0"),
    "n=1": ("4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    "spirals2": ("4b9c3ec812a8c1b0e1b39d1d7abf250155daefe34048fd202a9395507967945e",
                 "2e72410de5b05bc2f604c35b8eaeb8aa372234c3333c9de4b664d9b2b6be8b7d",
                 "f62695680860d8db9cc9b7600356476faf972485e2bcdec0107bf0d277c2c14c",
                 "124edb80b7ff31df064b2b52e144fa9168c81d12b785ae55a3ed8a6540176310"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BALLS))
def test_generate_balls_matches_golden_digests(name):
    points = (_EDGE_INPUTS[name] if name in _EDGE_INPUTS
              else generate(BUNDLED_DATASETS[name]).points)
    bs = generate_balls(Dataset(points=points))
    assert (_sha(bs.sizes.astype(np.int64), bs.order.astype(np.int64)),
            _sha(bs.centers), _sha(bs.radii), _sha(bs.sum_radius)) == GOLDEN_BALLS[name]


def test_division_trace_matches_golden_digests():
    # sha256 of the accepted splits' average distances (float64), in the
    # order division decides them, and of the rounds as (phase is divide,
    # balls, splits, oversized) int64 rows, on blobs10k; the rounds recorded
    # before division moved to coordinate-major arrays, the splits when
    # segment sums became np.add.reduceat
    trace = DivisionTrace()
    with accepted_splits() as splits:
        generate_balls(generate(BUNDLED_DATASETS["blobs10k"]), trace=trace)
    rounds = [(r.phase == "divide", r.ball_count, r.split_count, r.oversized_count)
              for r in trace.rounds]
    assert (_sha(np.array(splits, dtype=np.float64)),
            _sha(np.array(rounds, dtype=np.int64)), trace.stop_reason) == (
        "dae2c30f7fd05ea669b66ca3a61465e27a0c6e1402ea62e0a0cc12a95fd0766b",
        "3ef42192d643847245c0f308c74a45eadf9d1120dd2e9c57e79ba7b9f0834214", "converged")


def test_partition_is_the_stable_sort_of_the_ok_segments():
    rng = np.random.default_rng(8)
    for trial in range(40):
        sizes = rng.integers(1, 301, int(rng.integers(2, 40)))
        starts, seg = np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)
        to_a = rng.uniform(size=sizes.sum()) < rng.uniform(size=sizes.size)[seg]
        # failed splits: every row on one side, a or b
        one_side = rng.uniform(size=sizes.size) < 0.25
        one_side[:2] = True
        side = rng.uniform(size=sizes.size) < 0.5
        side[:2] = True, False
        to_a = np.where(one_side[seg], side[seg], to_a)
        ok, side_sizes, part = _partition(to_a, sizes, starts)
        n_a = np.bincount(seg, weights=to_a, minlength=sizes.size).astype(np.int64)
        assert np.array_equal(ok, (n_a > 0) & (n_a < sizes))
        assert np.array_equal(side_sizes, np.column_stack((n_a[ok], sizes[ok] - n_a[ok])).ravel())
        by_side = np.argsort(seg * 2 + ~to_a, kind="stable")
        assert np.array_equal(part, by_side[ok[seg[by_side]]])


def _reduceat_sum(x):
    """A segment's sum as ``np.add.reduceat`` adds it: the first item, then the rest's sum."""
    return x[0] + x[1:].sum()


def test_segment_kernels_match_per_slice_numpy():
    # centres and distance sums add a segment x[s:e] as x[s] + x[s + 1:e].sum(),
    # coordinate by coordinate; member distances add the coordinates in order
    rng = np.random.default_rng(5)
    for trial in range(60):
        d = (1, 2, 8)[trial % 3]
        sizes = np.concatenate([[1, 7, 8, 9, 128, 129], rng.integers(1, 401, 20)])
        rng.shuffle(sizes)
        pts = rng.normal(0, 1, (sizes.sum(), d)) * 10.0 ** rng.integers(-6, 7, (sizes.sum(), d))
        starts = np.cumsum(sizes) - sizes
        slices = [slice(s, s + z) for s, z in zip(starts, sizes)]
        centers, dists, radii, dist_sums = fit_segments(np.ascontiguousarray(pts.T), sizes)
        expected = [[_reduceat_sum(pts[sl, j]) / (sl.stop - sl.start) for sl in slices]
                    for j in range(d)]
        assert centers.tobytes() == np.array(expected).tobytes()
        own = np.repeat(centers.T, sizes, axis=0)
        squares = (pts[:, 0] - own[:, 0]) ** 2
        for j in range(1, d):
            squares += (pts[:, j] - own[:, j]) ** 2
        assert dists.tobytes() == np.sqrt(squares).tobytes()
        assert radii.tobytes() == np.array([dists[sl].max() for sl in slices]).tobytes()
        assert dist_sums.tobytes() == np.array([_reduceat_sum(dists[sl]) for sl in slices]).tobytes()


def test_segment_sums_stay_within_the_pairwise_error_bound():
    # numpy sums a run pairwise, in blocks of 8 lanes of up to 16 items, so
    # each sum is within about (log2(n) + 30) * u * sum(|x|) of the exact
    # one (Higham 1993); adding items one by one, as bincount does, drifts by
    # about u * sqrt(n) * sum(|x|), several times that at n = 10**5
    rng = np.random.default_rng(12)
    sizes = np.array([1, 2, 9, 130, 4_097, 60_000, 100_000])
    starts = np.cumsum(sizes) - sizes
    pts = rng.uniform(0, 1, (2, sizes.sum())) * [[1.0], [1e6]] + [[0.0], [1e3]]
    centers, dists, _, dist_sums = fit_segments(pts, sizes)
    u = 2.0 ** -53
    for k, (s, z) in enumerate(zip(starts, sizes)):
        bound = (np.log2(z) + 30) * u
        exact = math.fsum(dists[s:s + z])
        assert abs(dist_sums[k] - exact) <= bound * exact
        for j in range(2):
            total = math.fsum(pts[j, s:s + z])
            assert abs(centers[j, k] - total / z) <= (bound + u) * total / z


def test_division_memory_stays_linear_in_points():
    ds = blob_points(100_000, 2)
    tracemalloc.start()
    try:
        generate_balls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_division_memory_at_8_dimensions():
    # The tracemalloc peak of generate_balls here was 6.87 MiB before division
    # moved to coordinate-major arrays, and 5.89 MiB after; the bound allows
    # the former plus one (d, n) float64 copy of the points.
    n, d = 20_000, 8
    ds = blob_points(n, d)
    tracemalloc.start()
    try:
        generate_balls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.87 * 2 ** 20 + 8 * n * d


@pytest.mark.parametrize("n, dim, times", [
    # 12.40 MiB (8.1 times the input) while division carried a distance per
    # member through every round and kept each round's copies alive; 7.73 MiB
    # (5.1 times) with a farthest-member offset per ball and the copies
    # freed; 4.70 MiB (3.08 times) since a round drops its parent columns
    # once it has gathered the children's, carries only the balls it tries
    # and keeps no accepted splits without a caller's trace
    (100_000, 2, 3.5),
    # 6.60 MiB (5.4 times), then 4.33 MiB (3.5 times), now 2.82 MiB (2.31 times)
    (20_000, 8, 2.75),
], ids=["2d-100k", "8d-20k"])
def test_division_working_set_in_input_bytes(n, dim, times):
    ds = blob_points(n, dim)
    tracemalloc.start()
    try:
        generate_balls(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times * ds.points.nbytes
