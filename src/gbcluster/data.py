"""Seeded synthetic dataset generators and CSV I/O.

Generator families: two moons, Gaussian blobs (with per-blob spread for
mixed-density layouts), concentric circles, and two interleaved spirals.
All generators are pure functions of their spec, seed included.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BallSet, ClusterAssignment, Dataset, _is_int64

FAMILIES = ("moons", "blobs", "circles", "spirals")

# Rows per chunk when writing CSV: holds the Python strings of one chunk,
# never of the whole file.
_CHUNK_ROWS = 256
# Characters per block when scanning a file before numpy's C reader takes it.
_BLOCK_CHARS = 2 ** 18


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # each test is written so that NaN, which fails every comparison, fails it
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.family == "blobs":
            centers = self.centers if self.centers is not None else ((0.0, 0.0),)
            if not centers or not centers[0]:
                raise ValueError(f"centers must hold a centre of one or more coordinates, got {centers}")
            if len({len(c) for c in centers}) != 1:
                raise ValueError("all blob centers must share one dimension")
            if not all(-math.inf < v < math.inf for c in centers for v in c):
                raise ValueError(f"centers must be finite, got {centers}")
            if self.scales is not None:
                scales = (self.scales,) if isinstance(self.scales, (int, float)) else self.scales
                if scales is self.scales and len(scales) != len(centers):
                    raise ValueError("scales must match the number of blob centers")
                if not all(0 <= s < math.inf for s in scales):
                    raise ValueError(f"scales must be finite and >= 0, got {self.scales}")
            if self.proportions is not None:
                if len(self.proportions) != len(centers):
                    raise ValueError("proportions must match the number of blob centers")
                if not all(0 < p < math.inf for p in self.proportions):
                    raise ValueError(f"proportions must be finite and positive, got {self.proportions}")
        if self.family == "circles" and self.radii is not None:
            if not self.radii or not all(0 < r < math.inf for r in self.radii):
                raise ValueError(f"circle radii must be one or more finite and positive values, "
                                 f"got {self.radii}")
        if self.family == "spirals" and not 0 < self.turns < math.inf:
            raise ValueError(f"spiral turns must be finite and positive, got {self.turns}")


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
    t_out = np.linspace(0.0, math.pi, spec.n // 2)
    t_in = np.linspace(0.0, math.pi, spec.n - spec.n // 2)
    return [np.column_stack([np.cos(t_out), np.sin(t_out)]),
            np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])]


def _gen_blobs(spec: GeneratorSpec, rng: np.random.Generator):
    centers = np.asarray(spec.centers if spec.centers is not None else [(0.0, 0.0)], dtype=float)
    k, dim = centers.shape
    scales = np.broadcast_to(spec.noise_sigma if spec.scales is None else spec.scales, k)
    return [c + rng.normal(0.0, s, size=(cnt, dim)) if s > 0 else np.tile(c, (cnt, 1))
            for c, s, cnt in zip(centers, scales, _split_counts(spec.n, k, spec.proportions))]


def _gen_circles(spec: GeneratorSpec, rng: np.random.Generator):
    radii = spec.radii if spec.radii is not None else (1.0, 2.0)
    ts = [np.linspace(0.0, 2.0 * math.pi, cnt, endpoint=False)
          for cnt in _split_counts(spec.n, len(radii))]
    return [np.column_stack([r * np.cos(t), r * np.sin(t)]) for r, t in zip(radii, ts)]


def _gen_spirals(spec: GeneratorSpec, rng: np.random.Generator):
    # Two arms offset by pi; radius grows by 1/pi per radian so the gap
    # between neighbouring arm passes stays ~1.0 everywhere.
    parts = []
    for arm, cnt in enumerate(_split_counts(spec.n, 2)):
        t = np.linspace(0.0, spec.turns * 2.0 * math.pi, cnt)
        r, phase = 0.5 + t / math.pi, t + arm * math.pi
        parts.append(np.column_stack([r * np.cos(phase), r * np.sin(phase)]))
    return parts


_GENERATORS = {
    "moons": _gen_moons,
    "blobs": _gen_blobs,
    "circles": _gen_circles,
    "spirals": _gen_spirals,
}


def generate(spec: GeneratorSpec) -> Dataset:
    """Generate a labelled dataset; identical specs yield identical bits."""
    rng = np.random.default_rng(spec.seed)
    parts = _GENERATORS[spec.family](spec, rng)  # one point array per component
    pts = np.vstack(parts)
    labels = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
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


def _dataset(table: np.ndarray, label_col: int | None) -> Dataset:
    if label_col is None:
        return Dataset(points=table)
    return Dataset(points=np.delete(table, label_col, axis=1),
                   labels=table[:, label_col].astype(np.int64))


def _c_table(path, has_header: bool = False) -> np.ndarray | None:
    """The file as a float64 table by numpy's C reader, or None where the
    reader refuses it (comments, ragged or unparsable records) or might part
    from the ``csv`` module and ``float()``."""
    try:
        # open() would take over a descriptor, and a pipe can be read only once
        if not (isinstance(os.fspath(path), str) and stat.S_ISREG(os.stat(path).st_mode)):
            return None
    except (TypeError, OSError):
        return None  # the Python reader opens it, or reports why it cannot
    try:
        # opened here, in the Python reader's encoding: given the path,
        # numpy would pick a decompressor by its suffix (.gz, .bz2, .xz, ...)
        with open(path, encoding="utf-8-sig") as fh:
            # a quote may open a cell that runs over lines, and U+001C..U+001F
            # are whitespace to numpy's float parser, not to float()
            while block := fh.read(_BLOCK_CHARS):
                if any(c in block for c in '"\x1c\x1d\x1e\x1f'):
                    return None
            fh.seek(0)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(fh, dtype=np.float64, delimiter=",", skiprows=int(has_header),
                                  comments=None, quotechar=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError too
        return None


def _column_named(header: list[str], name: str) -> int | None:
    """Where ``name`` is in the header, case and surrounding spaces aside, or None."""
    names = [h.strip().lower() for h in header]
    return names.index(name.strip().lower()) if name.strip().lower() in names else None


def load_csv(path, has_header: bool = False, label_column: int | str | None = None) -> Dataset:
    """Load a dataset from a comma-delimited file.

    Every non-label cell must parse as a finite real; rows must all have the
    same width.  ``label_column``, a 0-based index or a header name (matched
    case and surrounding spaces aside; where none matches, there are no
    labels), must hold integers that fit in int64, and is removed from the
    features.  A leading UTF-8 byte-order mark is skipped.  The first fault
    in the file is reported.

    numpy's C reader parses the file first, and its table is returned when
    the reader takes every record and the table passes the checks above.
    Where numpy accepts a cell it yields ``float()``'s bits, so this is what
    ``_load_csv_python`` returns.  Any other file (quoted cells, ``1_0``,
    non-ASCII digits, whitespace-only lines, a fault, no data rows, a pipe)
    is read by ``_load_csv_python``, one cell at a time in file order, which
    accepts it or names its first fault, at about 5 times the C reader's time.
    """
    if isinstance(label_column, str) and not has_header:
        raise ValueError(f"{path}: label column {label_column!r} is a name, but there is no header")
    table = _c_table(path, has_header)
    if table is not None and len(table) and np.isfinite(table).all():
        if isinstance(label_column, str):  # a regular file with no quotes: read its header again
            with open(path, encoding="utf-8-sig") as fh:
                label_column = _column_named(fh.readline().split(","), label_column)
        if label_column is None:
            return _dataset(table, None)
        width = table.shape[1]
        if -width <= label_column < width and _is_int64(table[:, label_column]).all():
            return _dataset(table, label_column % width)
    return _load_csv_python(path, has_header, label_column)


def _load_csv_python(path, has_header: bool = False, label_column: int | str | None = None) -> Dataset:
    """``load_csv`` by the ``csv`` module and ``float()``, one cell at a time
    in file order: the reference reader, and the one that names faults."""
    values = array("d")  # 8 bytes a cell, never a Python float per cell
    width = label_col = None
    row_no = 0  # the last record read; records count from 1, the header and skipped ones included
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if has_header:
                header, row_no = next(reader, []), 1
                if isinstance(label_column, str):
                    label_column = _column_named(header, label_column)
            for row_no, row in enumerate(reader, row_no + 1):
                if len(row) < 2 and not (row and row[0].strip()):
                    continue  # a blank or whitespace-only record
                if width is None:
                    width = len(row)
                    if label_column is not None and not -width <= label_column < width:
                        raise ValueError(f"{path}: label column {label_column} out of range "
                                         f"for {width} columns")
                    label_col = None if label_column is None else label_column % width
                if len(row) != width:
                    raise ValueError(f"{path}: row {row_no} has {len(row)} columns, expected {width}")
                for col_no, cell in enumerate(row):
                    kind = "label" if col_no == label_col else "value"
                    try:
                        val = float(cell)
                    except ValueError:
                        raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                         f"cannot parse {kind} {cell!r}") from None
                    if kind == "label" and not _is_int64(val):
                        raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                         f"label {cell!r} is not an integer")
                    if kind == "value" and not math.isfinite(val):
                        raise ValueError(f"{path}: row {row_no}, column {col_no}: "
                                         f"non-finite value {cell!r}")
                    values.append(val)
        except csv.Error as exc:  # a record the csv module refuses: a cell over its field limit
            raise ValueError(f"{path}: row {row_no + 1}: {exc}") from None
    if width is None:
        raise ValueError(f"{path}: no data rows")
    return _dataset(np.frombuffer(values).reshape(-1, width), label_col)


def _write_table(path, header: list[str], floats: list[np.ndarray], ints: list[np.ndarray]) -> None:
    """Write a header, then the columns ``_CHUNK_ROWS`` rows at a time: floats
    with 17 significant digits (which round-trip float64), then integers.
    No cell holds a comma or quote, so these are the bytes csv.writer writes."""
    columns = [*floats, *ints]
    row = ",".join(["%.17g"] * len(floats) + ["%d"] * len(ints)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
            cells = zip(*[col[lo:lo + _CHUNK_ROWS].tolist() for col in columns])
            fh.write("".join(map(row.__mod__, cells)))


def save_dataset(path, dataset: Dataset) -> None:
    """Write a dataset as CSV (header row; ground-truth labels last, if any)."""
    labels = [] if dataset.labels is None else [dataset.labels]
    _write_table(path, [f"x{i}" for i in range(dataset.dim)] + ["label"] * len(labels),
                 list(dataset.points.T), labels)


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
    _write_table(prefix + "_points.csv", [f"x{i}" for i in range(dataset.dim)] + ["cluster"],
                 list(dataset.points.T), [assignment.labels])
    balls = ([], []) if ballset is None else (
        [*ballset.centers.T, ballset.radii],
        [assignment.labels[ballset.order[ballset.starts]], ballset.overlap_counts, ballset.sizes])
    _write_table(prefix + "_balls.csv", [f"c{i}" for i in range(dataset.dim)]
                 + ["radius", "cluster", "overlaps", "points"], *balls)
