"""Clustering evaluation (Rand index) and wall-time benchmarking."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ClusterAssignment, Dataset


@dataclass(frozen=True)
class BenchReport:
    """One benchmark row: an algorithm's timing and scores on one dataset."""

    algorithm: str
    dataset: str
    wall_time: float
    rand_index: float | None
    cluster_count: int
    noise_count: int

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "wall_time_s": self.wall_time,
            "rand_index": self.rand_index,
            "cluster_count": self.cluster_count,
            "noise_count": self.noise_count,
        }


def _group_ids(x: np.ndarray) -> np.ndarray:
    """Per item, where its value first appears in sorted order: one id per
    distinct value, each below x.size."""
    return np.searchsorted(np.sort(x), x)


def rand_index(labels_a, labels_b) -> float:
    """Fraction of point pairs on which two labellings agree.

    A pair agrees when both labellings put it together or both apart.  The
    noise label -1 is compared literally, like any other label.  Counting is
    exact integer arithmetic over the label contingency table.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.size != b.size:
        raise ValueError(f"label vectors differ in length: {a.size} vs {b.size}")
    n = a.size
    if n < 2:
        raise ValueError("rand_index needs at least 2 points")
    ai, bi = _group_ids(a), _group_ids(b)
    # Group sizes c give 2 * (pairs within groups) = sum(c * (c - 1)) = c @ c - n.
    both, rows, cols = np.bincount(_group_ids(ai * n + bi)), np.bincount(ai), np.bincount(bi)
    total = n * (n - 1) // 2
    agree = total + int(both @ both) - n - (int(rows @ rows) + int(cols @ cols) - 2 * n) // 2
    return agree / total


def benchmark(runner: Callable[[Dataset], ClusterAssignment], dataset: Dataset,
              repetitions: int = 1, algorithm: str = "", dataset_name: str = "") -> BenchReport:
    """Time a clustering runner end to end.

    Reports the median wall time over ``repetitions`` runs (data loading and
    generation excluded: the dataset is already in memory).  Scores come from
    the first run; the runners here are deterministic, so reruns agree.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    times = []
    assignment = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = runner(dataset)
        times.append(time.perf_counter() - t0)
        if assignment is None:
            assignment = result
    ri = None
    if dataset.labels is not None:
        ri = rand_index(dataset.labels, assignment.labels)
    return BenchReport(
        algorithm=algorithm,
        dataset=dataset_name,
        wall_time=statistics.median(times),
        rand_index=ri,
        cluster_count=assignment.cluster_count,
        noise_count=assignment.noise_count,
    )
