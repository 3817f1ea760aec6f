"""Smoke tests of the benchmark's own scoring, failure counting and tracing."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from gbcluster import cli, differentiation  # noqa: E402
from gbcluster.core import Dataset  # noqa: E402
from gbcluster.data import save_dataset  # noqa: E402
from gbcluster.metrics import rand_index  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_ari_is_one_on_identical_and_relabelled_labellings():
    labels = [0, 0, 1, 1, 2, -1, 2]
    assert checks.adjusted_rand_index(checks.contingency(labels, labels)) == 1.0
    relabelled = [5, 5, 0, 0, 3, 9, 3]
    assert checks.adjusted_rand_index(checks.contingency(labels, relabelled)) == 1.0


def test_ari_and_rand_index_on_a_hand_computed_case():
    truth = [0, 0, 0, 1, 1, 1]
    pred = [0, 0, 1, 1, 2, 2]
    table = checks.contingency(truth, pred)
    # together in both: 2 pairs; together in truth: 6; in pred: 3; of 15 pairs.
    # expected = 6 * 3 / 15 = 1.2, best = 4.5, so ARI = (2 - 1.2) / (4.5 - 1.2) = 8/33
    assert checks.adjusted_rand_index(table) == pytest.approx(8 / 33, rel=1e-12)
    assert checks.rand_index(table) == pytest.approx(10 / 15, rel=1e-12)
    assert checks.rand_index(table) == rand_index(truth, pred)


def test_label_and_ball_invariants():
    assert checks.label_problems([0, 1, -1, 1], 4) == []
    assert checks.label_problems([0, 2, 2], 3)  # id 1 missing
    assert checks.label_problems([0, 0], 3)  # wrong length
    radii = np.array([1.0, 1.0])
    assert checks.ball_problems([np.array([0, 1]), np.array([2])], radii, 3, False) == []
    assert checks.ball_problems([np.array([0, 1]), np.array([1, 2])], radii, 3, False)
    big = np.array([1.0] * 9 + [10.0])
    members = [np.array([i]) for i in range(10)]
    assert checks.ball_problems(members, big, 10, False)
    assert checks.ball_problems(members, big, 10, True) == []


def test_unshuffle_restores_the_generator_order():
    data = Dataset(points=np.arange(12.0).reshape(6, 2), labels=np.array([0, 0, 1, 1, 2, 2]))
    moved, order = workloads.shuffled(data, seed=3)
    assert not np.array_equal(moved.labels, data.labels)
    assert np.array_equal(checks.unshuffle(moved.labels, order), data.labels)
    assert np.array_equal(workloads.shuffled(data, seed=0)[1], np.arange(6))


def test_only_the_round_cap_warning_turns_off_the_oversize_check():
    import warnings

    def warns(message):
        return lambda: warnings.warn(message, RuntimeWarning)

    assert workloads._capture_round_cap(warns("mean of empty slice"))[1] is False
    assert workloads._capture_round_cap(
        warns("ball refinement hit the round cap with oversized balls remaining"))[1] is True


def test_cli_ball_sets_are_kept_and_the_patch_undone(tmp_path):
    rng = np.random.default_rng(0)
    path = str(tmp_path / "pts.csv")
    save_dataset(path, Dataset(points=rng.normal(size=(60, 2)), labels=np.zeros(60, dtype=np.int64)))
    original = cli.cluster
    with workloads.keeping_cluster_results([]) as results:
        code = cli.main(["run", "--algo", "gbc", "--in", path, "--out", str(tmp_path / "out")])
    assert code == 0 and cli.cluster is original
    (assignment, ballset), = results
    members, radii = checks.ball_view(ballset)
    assert checks.ball_problems(members, radii, 60, False) == []


class Corrupting(workloads.Blobs):
    """Blobs whose third operation returns a corrupted labelling."""

    def __init__(self, corrupt):
        super().__init__(n=300, dim=2)
        self.corrupt = corrupt
        self.calls = 0

    def run(self, state):
        (assignment, ballset), cap = super().run(state)
        self.calls += 1
        if self.calls == 3:  # the first call is the set-up's warm-up
            assignment = SimpleNamespace(labels=self.corrupt(np.array(assignment.labels)))
        return (assignment, ballset), cap


def _gap(labels):
    labels[labels == 0] = labels.max() + 2
    return labels


def _swap(labels):
    return np.where(labels == 0, 1, np.where(labels == 1, 0, labels))


@pytest.mark.parametrize("corrupt", [_gap, _swap], ids=["non-contiguous-ids", "changed-labels"])
def test_corrupted_labelling_counts_as_failed(tmp_path, corrupt):
    wl = Corrupting(corrupt)
    state, _, reference = harness.set_up(wl, seed=1, workdir=str(tmp_path), repeats=1)
    assert reference.problems == []
    loop = harness.timed_loop(wl, state, reference, seconds=0.0)
    assert loop.attempted == harness.MIN_OPS
    assert loop.failed == 1
    assert loop.failed / loop.attempted == pytest.approx(1 / harness.MIN_OPS)


def test_tracer_restores_and_counts(tmp_path):
    wl = workloads.Blobs(n=300, dim=2)
    state = wl.setup(seed=2, workdir=str(tmp_path))
    original = differentiation.count_overlaps
    tracer = Tracer()
    with tracer.installed():
        assert differentiation.count_overlaps is not original
        (assignment, ballset), _ = wl.run(state)
    assert differentiation.count_overlaps is original
    m = tracer.layer_metrics()
    assert m["division.balls"] == len(ballset)
    assert m["division.splits_accepted"] == len(ballset) - 1
    assert m["core.fit_ball_calls"] > 0 and m["division.s"] > 0
    assert m["data.rows_read"] == 0


def test_missing_wrapped_name_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(differentiation, "_pairwise_center_distances")
    monkeypatch.delattr(differentiation, "distance_evaluations")
    tracer = Tracer()
    m = tracer.layer_metrics()
    assert m["differentiation.center_dists_s"] is None
    assert m["differentiation.pairs_evaluated"] is None
    assert m["differentiation.edge_ratio"] is None
    assert m["differentiation.overlaps_s"] is not None
