"""Seeded synthetic dataset generators and CSV I/O.

Generator families: two moons, Gaussian blobs (with per-blob spread for
mixed-density layouts), concentric circles, and two interleaved spirals.
All generators are pure functions of their spec, seed included.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BallSet, ClusterAssignment, Dataset

FAMILIES = ("moons", "blobs", "circles", "spirals")

# Decimal format used for every written coordinate; 17 significant digits
# round-trip float64 exactly.
_FMT = ".17g"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one synthetic dataset.

    Family-specific fields: ``centers``/``scales``/``proportions`` for blobs,
    ``radii`` for circles, ``turns`` for spirals.  ``noise_sigma`` is the
    coordinate noise for moons/circles/spirals and the default per-blob
    spread when ``scales`` is not given.
    """

    family: str
    n: int
    noise_sigma: float = 0.0
    seed: int = 0
    centers: tuple[tuple[float, ...], ...] | None = None
    scales: tuple[float, ...] | float | None = None
    proportions: tuple[float, ...] | None = None
    radii: tuple[float, ...] | None = None
    turns: float = 1.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.family == "blobs":
            centers = self.centers if self.centers is not None else ((0.0, 0.0),)
            if len({len(c) for c in centers}) != 1:
                raise ValueError("all blob centers must share one dimension")
            if (self.scales is not None and not isinstance(self.scales, (int, float))
                    and len(self.scales) != len(centers)):
                raise ValueError("scales must match the number of blob centers")
            if self.proportions is not None:
                if len(self.proportions) != len(centers):
                    raise ValueError("proportions must match the number of blob centers")
                if any(p <= 0 for p in self.proportions):
                    raise ValueError("proportions must be positive")
        if self.family == "circles" and self.radii is not None:
            if any(r <= 0 for r in self.radii):
                raise ValueError("circle radii must be positive")
        if self.family == "spirals" and self.turns <= 0:
            raise ValueError("spiral turns must be positive")


def _split_counts(n: int, k: int, proportions: Sequence[float] | None = None) -> list[int]:
    """Deterministically split n points over k components."""
    if proportions is None:
        counts = [n // k] * k
    else:
        total = float(sum(proportions))
        counts = [int(n * p / total) for p in proportions]
    for i in range(n - sum(counts)):
        counts[i % k] += 1
    return counts


def _gen_moons(spec: GeneratorSpec, rng: np.random.Generator):
    n_out = spec.n // 2
    n_in = spec.n - n_out
    t_out = np.linspace(0.0, math.pi, max(n_out, 1))[:n_out]
    t_in = np.linspace(0.0, math.pi, max(n_in, 1))[:n_in]
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    pts = np.vstack([outer, inner])
    labels = np.array([0] * n_out + [1] * n_in)
    return pts, labels


def _gen_blobs(spec: GeneratorSpec, rng: np.random.Generator):
    centers = np.asarray(spec.centers if spec.centers is not None else [(0.0, 0.0)], dtype=float)
    k = centers.shape[0]
    if spec.scales is None:
        scales = [spec.noise_sigma] * k
    elif isinstance(spec.scales, (int, float)):
        scales = [float(spec.scales)] * k
    else:
        scales = list(spec.scales)
    counts = _split_counts(spec.n, k, spec.proportions)
    chunks, labels = [], []
    for i, (c, s, cnt) in enumerate(zip(centers, scales, counts)):
        chunks.append(c + rng.normal(0.0, s, size=(cnt, centers.shape[1])) if s > 0
                      else np.tile(c, (cnt, 1)))
        labels += [i] * cnt
    return np.vstack([ch for ch in chunks if len(ch)]), np.array(labels)


def _gen_circles(spec: GeneratorSpec, rng: np.random.Generator):
    radii = spec.radii if spec.radii is not None else (1.0, 2.0)
    counts = _split_counts(spec.n, len(radii))
    chunks, labels = [], []
    for i, (r, cnt) in enumerate(zip(radii, counts)):
        t = np.linspace(0.0, 2.0 * math.pi, max(cnt, 1), endpoint=False)[:cnt]
        chunks.append(np.column_stack([r * np.cos(t), r * np.sin(t)]))
        labels += [i] * cnt
    return np.vstack([ch for ch in chunks if len(ch)]), np.array(labels)


def _gen_spirals(spec: GeneratorSpec, rng: np.random.Generator):
    # Two arms offset by pi; radius grows by 1/pi per radian so the gap
    # between neighbouring arm passes stays ~1.0 everywhere.
    counts = _split_counts(spec.n, 2)
    chunks, labels = [], []
    for arm, cnt in enumerate(counts):
        t = np.linspace(0.0, spec.turns * 2.0 * math.pi, max(cnt, 1))[:cnt]
        r = 0.5 + t / math.pi
        phase = t + arm * math.pi
        chunks.append(np.column_stack([r * np.cos(phase), r * np.sin(phase)]))
        labels += [arm] * cnt
    return np.vstack([ch for ch in chunks if len(ch)]), np.array(labels)


_GENERATORS = {
    "moons": _gen_moons,
    "blobs": _gen_blobs,
    "circles": _gen_circles,
    "spirals": _gen_spirals,
}


def generate(spec: GeneratorSpec) -> Dataset:
    """Generate a labelled dataset; identical specs yield identical bits."""
    rng = np.random.default_rng(spec.seed)
    pts, labels = _GENERATORS[spec.family](spec, rng)
    if spec.family != "blobs" and spec.noise_sigma > 0:
        pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
    return Dataset(points=pts, labels=labels)


# Datasets shipped with the CLI; names accepted by `gen --dataset` and
# `bench --data`.
BUNDLED_DATASETS: dict[str, GeneratorSpec] = {
    "moons1k": GeneratorSpec(family="moons", n=1000, noise_sigma=0.05, seed=7),
    "blobs5": GeneratorSpec(
        family="blobs",
        n=2500,
        seed=11,
        # three dense components below, two sparse ones above (~5x density gap)
        centers=((0.0, 0.0), (4.0, 0.0), (8.0, 0.0), (0.5, 5.5), (7.5, 5.5)),
        scales=(0.3, 0.3, 0.3, 0.7, 0.7),
    ),
    "circles3": GeneratorSpec(family="circles", n=1500, noise_sigma=0.03, seed=3,
                              radii=(0.8, 1.6, 2.4)),
    "spirals2": GeneratorSpec(family="spirals", n=2000, noise_sigma=0.03, seed=5, turns=1.25),
    "blobs10k": GeneratorSpec(
        family="blobs",
        n=10_000,
        seed=1,
        centers=((0.0, 0.0), (6.0, 0.0), (3.0, 5.0), (-3.0, 4.0), (9.0, 5.0)),
        scales=(0.5, 0.5, 0.5, 0.5, 0.5),
    ),
}


def load_csv(path, has_header: bool = False, label_column: int | None = None) -> Dataset:
    """Load a dataset from a comma-delimited file.

    Every non-label cell must parse as a finite real; rows must all have the
    same width.  ``label_column`` (0-based) is parsed as integers and removed
    from the features.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if has_header and row_no == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if width is None:
                width = len(row)
                if label_column is not None and not -len(row) <= label_column < len(row):
                    raise ValueError(f"{path}: label column {label_column} out of range "
                                     f"for {len(row)} columns")
            elif len(row) != width:
                raise ValueError(f"{path}: row {row_no} has {len(row)} columns, expected {width}")
            feats = []
            for col_no, cell in enumerate(row):
                if label_column is not None and col_no == label_column % width:
                    try:
                        val = float(cell)
                    except ValueError:
                        raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                         f"cannot parse label {cell!r}") from None
                    if val != int(val):
                        raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                         f"label {cell!r} is not an integer")
                    labels.append(int(val))
                    continue
                try:
                    val = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                     f"cannot parse value {cell!r}") from None
                if not math.isfinite(val):
                    raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                     f"non-finite value {cell!r}")
                feats.append(val)
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(points=np.array(rows), labels=np.array(labels) if labels else None)


def save_dataset(path, dataset: Dataset) -> None:
    """Write a dataset as CSV (header row; ground-truth labels last, if any)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"x{i}" for i in range(dataset.dim)]
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, p in enumerate(dataset.points):
            row = [format(v, _FMT) for v in p]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def save_results(path_prefix, dataset: Dataset, assignment: ClusterAssignment,
                 ballset: BallSet | None = None) -> None:
    """Write clustering results for external plotting.

    ``<prefix>_points.csv`` holds one row per point (coordinates + cluster
    label); ``<prefix>_balls.csv`` one row per ball (center, radius, cluster,
    overlap count, member count), or just the header when there are no balls
    (baseline algorithms).
    """
    if len(assignment) != len(dataset):
        raise ValueError("assignment length does not match dataset size")
    prefix = str(path_prefix)
    with open(prefix + "_points.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + ["cluster"])
        for p, lab in zip(dataset.points, assignment.labels):
            writer.writerow([format(v, _FMT) for v in p] + [str(int(lab))])
    with open(prefix + "_balls.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"c{i}" for i in range(dataset.dim)]
                        + ["radius", "cluster", "overlaps", "points"])
        if ballset is None:
            return
        clusters = assignment.labels[ballset.order[ballset.starts]]
        for center, radius, cluster, overlaps, size in zip(
                ballset.centers, ballset.radii.tolist(), clusters.tolist(),
                ballset.overlap_counts.tolist(), ballset.sizes.tolist()):
            writer.writerow([format(v, _FMT) for v in center]
                            + [format(radius, _FMT), str(cluster), str(overlaps), str(size)])
