"""Rand index and the benchmark harness."""

import numpy as np
import pytest

from gbcluster.core import ClusterAssignment
from gbcluster.data import GeneratorSpec, generate
from gbcluster.metrics import BenchReport, benchmark, rand_index


def test_identical_labelings():
    assert rand_index([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_hand_enumerated_example():
    # pairs (0,3) and (1,2) agree (apart in both); the other four disagree
    assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2 / 6, abs=0)


def test_permutation_of_labels_is_perfect():
    a = [0, 0, 1, 2, 2, 1]
    b = [2, 2, 0, 1, 1, 0]
    assert rand_index(a, b) == 1.0


def test_noise_label_compared_literally():
    # both -1 counts as "together", so the two labelings fully disagree here
    assert rand_index([-1, -1], [0, 1]) == 0.0


def test_symmetry_and_relabel_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.integers(-1, 4, size=n)
        b = rng.integers(-1, 4, size=n)
        assert rand_index(a, b) == rand_index(b, a)
        remap = {v: 10 - v for v in np.unique(a)}
        assert rand_index([remap[v] for v in a], b) == rand_index(a, b)


def test_validation_errors():
    with pytest.raises(ValueError):
        rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        rand_index([0], [0])


def _constant_runner(labels):
    return lambda ds: ClusterAssignment(labels=labels)


def test_benchmark_report_fields():
    ds = generate(GeneratorSpec(family="blobs", n=40, seed=1,
                                centers=((0.0, 0.0), (9.0, 0.0)), scales=(0.5, 0.5)))
    labels = np.array([0] * 20 + [1] * 19 + [-1])
    report = benchmark(_constant_runner(labels), ds, repetitions=3,
                       algorithm="stub", dataset_name="blobs")
    assert report.algorithm == "stub" and report.dataset == "blobs"
    assert report.wall_time >= 0.0
    assert report.cluster_count == 2
    assert report.noise_count == 1
    assert report.rand_index == rand_index(ds.labels, labels)
    d = report.as_dict()
    assert set(d) == {"algorithm", "dataset", "wall_time_s", "rand_index",
                      "cluster_count", "noise_count"}


def test_benchmark_without_ground_truth():
    ds = generate(GeneratorSpec(family="blobs", n=10, seed=1, noise_sigma=0.1))
    ds = type(ds)(points=ds.points)  # drop labels
    report = benchmark(_constant_runner(np.zeros(10, dtype=int)), ds)
    assert report.rand_index is None


def test_benchmark_single_repetition_and_determinism():
    ds = generate(GeneratorSpec(family="blobs", n=30, seed=6, noise_sigma=0.2))
    calls = []

    def runner(dataset):
        calls.append(1)
        return ClusterAssignment(labels=np.zeros(len(dataset), dtype=int))

    r1 = benchmark(runner, ds, repetitions=1)
    assert len(calls) == 1
    r2 = benchmark(runner, ds, repetitions=4)
    assert r1.cluster_count == r2.cluster_count == 1
    with pytest.raises(ValueError):
        benchmark(runner, ds, repetitions=0)
