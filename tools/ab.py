"""Paired, in-process timing of every stage of cluster() and of the CLI at two commits.

    python3 tools/ab.py [--base REV] [--pairs N] [--sets NAME,...]
                        [--out BENCH_<label>.json]

The base is ``src/gbcluster`` at REV (default HEAD), taken with
``git archive`` into a temporary directory and imported as the package
``gbcluster_base``; ``src/`` uses only relative imports, so both copies load
side by side.  The change is this checkout's ``src/gbcluster`` as it is on
disk.

The sets are perfbench's ``blob_points`` at 2-d 100k, 300k and 1M, 8-d 20k
and 100k and 32-d 100k; five sigma-0.5 blobs on a line at 1-d 100k
(``blob_points`` gives 2-d points for ``dim`` 1); and ``bundled-cli``, the
five bundled sets.  Each is shuffled with seed 1, as the benchmark's seed 1
does.  The stages run over every point set of a set, on the ball set and
sweep of one ``cluster()`` of the same copy: division (``generate_balls``),
the sweep (``_pairwise_center_distances``), merge (``merge_adjacent``),
noise (``assign_noise``, handed the sweep as ``cluster()`` hands it), the
sweep, overlaps (``count_overlaps``, an attribute read) and merge in a row
(``geometry``), and the whole ``cluster()``.  ``bundled-cli`` adds the stages
of ``gbcluster run`` as the benchmark's ``bundled-cli`` workload runs it,
each set written once as a CSV file: ``load_csv``, ``save_results`` and the
whole ``cli.main(["run", "--algo", "gbc", ...])``.

Each pair calls one stage in both copies, the base first in even pairs and
the change first in odd ones.  For each stage the tool prints the median of
the ratios change / base, their interquartile range and the pairs the
change won (ratio below 1).  It checks that both copies give the same ball
sets, the same labels and overlap counts from ``cluster()`` and, on
``bundled-cli``, the same points and balls files.  It also takes each copy's
counts (balls m, live balls, clusters K, noise points, tile entries of the
one sweep of ``cluster()``, overlapping pairs and the non-overlapping pairs
the sweep keeps) and the ``tracemalloc`` peaks of one division, sweep,
geometry and ``cluster()`` call, the last the peak that perfbench's
``peak_rss_mb`` follows.  Each side's peak is the lower of two readings, one
taken before the other side's and one after, since a few hundred bytes of a
peak follow the order of the calls, not the code.  ``--out`` writes all of
it to a JSON file, with both sides' least times, both commits' SHAs, the
``git status`` of ``src/`` and the numpy, Python and machine details.  Every run prints, and ``--out``
records, the line count of each module of ``src/gbcluster`` on both sides
and the net change.

A paired ratio cancels slow drift of the host, not a second load that
arrives within one pair, so run it on an idle host.  Against the commit
itself (``--base HEAD`` on a clean checkout) it measures its own noise.
Both copies run in one warm process, so the ratios miss the first-touch
page faults that perfbench's fresh processes take (0 against 3,588 minor
faults a ``generate_balls`` call at 2-d 100k, in two variants of one
change), and they do not predict perfbench's ``wall_s``: that takes the
benchmark itself, run on both commits (README, "Measuring a change").
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETS = {"blobs-1d-100k": (100_000, 1), "blobs-2d-100k": (100_000, 2), "blobs-2d-300k": (300_000, 2),
        "blobs-2d-1m": (1_000_000, 2), "blobs-8d-20k": (20_000, 8), "blobs-8d-100k": (100_000, 8),
        "blobs-32d-100k": (100_000, 32), "bundled-cli": None}
LINE_CENTERS = ((0.0,), (6.0,), (12.0,), (18.0,), (24.0,))
SHUFFLE_SEED = 1
COUNTS = ("balls", "live_balls", "clusters", "noise_points", "tile_entries", "pairs_overlapping",
          "pairs_kept")
PEAKS = ("division", "sweep", "geometry", "cluster")


def extract_base(rev: str, tmp: str) -> Path:
    """The directory of the package ``src/gbcluster`` of commit rev, extracted under tmp."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/gbcluster"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    return Path(tmp) / "src" / "gbcluster"


def load_package(package: Path):
    """The package in the directory ``package``, imported as ``gbcluster_base``."""
    spec = importlib.util.spec_from_file_location("gbcluster_base", package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["gbcluster_base"] = module
    spec.loader.exec_module(module)
    return module


def src_lines(base: Path, change: Path) -> dict:
    """The line count of each module of the packages in the directories base
    and change, and the net change of the total."""
    sides = {side: {path.name: len(path.read_text().splitlines()) for path in sorted(pkg.glob("*.py"))}
             for side, pkg in (("base", base), ("change", change))}
    return {**sides, "net": sum(sides["change"].values()) - sum(sides["base"].values())}


def points(name: str) -> list:
    """The point sets of the named set, in the benchmark's seed-1 order."""
    from workloads import blob_points, shuffled
    from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate

    if SETS[name] is None:
        data = [generate(BUNDLED_DATASETS[key]) for key in sorted(BUNDLED_DATASETS)]
    elif SETS[name][1] == 1:
        data = [generate(GeneratorSpec(family="blobs", n=SETS[name][0], seed=1, scales=0.5,
                                       centers=LINE_CENTERS))]
    else:
        data = [blob_points(*SETS[name])]
    return [shuffled(ds, SHUFFLE_SEED)[0] for ds in data]


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def side(pkg, data: list, files: list | None, tag: str) -> tuple[dict, dict, dict]:
    """Package pkg's stage calls over the point sets, its counts, and what
    the two sides must agree on.  With the sets' CSV files, the CLI stages
    too, writing under the prefixes ``<file>-<tag>``."""
    D = pkg.differentiation
    runs, counts, same = [], dict.fromkeys(COUNTS, 0), {"balls": [], "labels_and_overlaps": []}
    for ds in (pkg.core.Dataset(points=d.points) for d in data):
        before = D.distance_evaluations()
        assignment, balls = D.cluster(ds)
        entries = D.distance_evaluations() - before
        sweep = D._pairwise_center_distances(balls)
        runs.append((ds, balls, sweep, D.merge_adjacent(balls, sweep), assignment))
        for key, value in zip(COUNTS, (len(balls), (~balls.noise_ball_flags).sum(),
                                       assignment.cluster_count, assignment.noise_count, entries,
                                       balls.overlap_counts.sum() // 2,
                                       sum(len(gaps) for _, gaps in sweep.kept))):
            counts[key] += int(value)
        same["balls"] += [balls.order, balls.sizes, balls.centers, balls.radii, balls.sum_radius]
        same["labels_and_overlaps"] += [assignment.labels, balls.overlap_counts]

    def each(call):
        def over_sets():
            for run in runs:
                call(*run)
        return over_sets

    def geometry(ds, balls, *_):
        sweep = D._pairwise_center_distances(balls)
        D.count_overlaps(balls, sweep)
        D.merge_adjacent(balls, sweep)

    stages = {"division": each(lambda ds, *_: pkg.division.generate_balls(ds)),
              "sweep": each(lambda ds, balls, *_: D._pairwise_center_distances(balls)),
              "merge": each(lambda ds, balls, sweep, *_: D.merge_adjacent(balls, sweep)),
              "noise": each(lambda ds, balls, sweep, ids, _: D.assign_noise(ds, balls, ids, sweep)),
              "geometry": each(geometry),
              "cluster": each(lambda ds, *_: D.cluster(ds))}
    if files:
        cli = importlib.import_module(f"{pkg.__name__}.cli")

        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                for path in files:
                    cli.main(["run", "--algo", "gbc", "--in", path, "--out", f"{path}-{tag}"])

        def load_csv():
            for path, ds in zip(files, data):
                pkg.data.load_csv(path, has_header=True, label_column=ds.dim)

        def save_results():
            for path, (ds, balls, *_, assignment) in zip(files, runs):
                pkg.data.save_results(f"{path}-{tag}-save", ds, assignment, balls)

        stages.update(load_csv=load_csv, save_results=save_results, cli=run_cli)
        run_cli()
        same["files"] = [np.frombuffer(Path(f"{path}-{tag}_{part}.csv").read_bytes(), np.uint8)
                         for path in files for part in ("points", "balls")]
    return stages, counts, same


def measure(name: str, packages, data: list, pairs: int, tmp: str | None = None) -> dict:
    """The row of one set: per stage, both sides' least times and the paired
    ratios; per side, the peaks and counts; and whether the sides agree.
    With tmp, the sets are written there as CSV files for the CLI stages."""
    files = None
    if tmp is not None:
        files = [os.path.join(tmp, f"{name}-{k}.csv") for k in range(len(data))]
        for path, ds in zip(files, data):
            packages[1].data.save_dataset(path, ds)
    (base, base_counts, base_same), (change, change_counts, change_same) = (
        side(pkg, data, files, tag) for pkg, tag in zip(packages, ("base", "change")))
    identical = {key: all(map(np.array_equal, base_same[key], change_same[key]))
                 for key in change_same}
    print(f"{name}: m={change_counts['balls']:,}  identical: {identical}  tile entries "
          f"{base_counts['tile_entries']:,} base, {change_counts['tile_entries']:,} change",
          flush=True)
    stages = {}
    for stage in change:
        times = _pairs(pairs, lambda j: _seconds((base, change)[j][stage]))
        least = times.min(axis=0).tolist()
        stages[stage] = {"base_min_s": least[0], "change_min_s": least[1], **_ratios(times)}
        print(f"  {stage:12s} {_shown(stages[stage], pairs)}  "
              f"least {least[0] * 1e3:.2f} base, {least[1] * 1e3:.2f} change ms", flush=True)
    peaks = _peaks((base, change))
    print("  peaks MiB: " + "  ".join(f"{stage} {p['base']:.2f} base, {p['change']:.2f} change"
                                      for stage, p in peaks.items()), flush=True)
    return {"name": name, "rows": sum(len(ds) for ds in data), "d": data[0].dim,
            "identical": identical, "counts": {"base": base_counts, "change": change_counts},
            "peak_mib": peaks, "stages": stages}


def _peaks(sides) -> dict:
    """Each side's peak of every stage in PEAKS: the lower of its readings
    in two pairs, base first in one and the change first in the other."""
    return {stage: dict(zip(("base", "change"), _pairs(
        2, lambda j: _peak_mib(sides[j][stage])).min(axis=0).tolist())) for stage in PEAKS}


def _pairs(pairs: int, call) -> np.ndarray:
    """call(j) for side j of each pair, base first in even pairs; (pairs, 2, ...)."""
    out = [[None, None] for _ in range(pairs)]
    for k in range(pairs):
        for j in ((0, 1) if k % 2 == 0 else (1, 0)):
            out[k][j] = call(j)
    return np.array(out, dtype=np.float64)


def _ratios(times: np.ndarray) -> dict:
    """The median of the paired ratios change / base, their IQR and the pairs won."""
    ratios = times[:, 1] / times[:, 0]
    q25, q50, q75 = np.percentile(ratios, [25, 50, 75]).tolist()
    return {"ratio_median": q50, "ratio_iqr": [q25, q75], "won": int((ratios < 1).sum())}


def _shown(row: dict, pairs: int) -> str:
    q25, q75 = row["ratio_iqr"]
    return f"ratio {row['ratio_median']:.3f} [IQR {q25:.3f}-{q75:.3f}]  won {row['won']} of {pairs}"


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit whose src/gbcluster is the base")
    parser.add_argument("--pairs", type=int, default=30, help="pairs of calls per stage")
    parser.add_argument("--sets", default=",".join(SETS),
                        help=f"comma-separated set names (default: all): {', '.join(SETS)}")
    parser.add_argument("--out", help="JSON file to write, BENCH_<label>.json by convention")
    args = parser.parse_args(argv)
    names = args.sets.split(",")
    unknown = [s for s in names if s not in SETS]
    if unknown or args.pairs < 1:
        parser.error(f"unknown sets: {unknown}" if unknown else "--pairs must be at least 1")
    import gbcluster
    if Path(gbcluster.__file__).resolve().parent != ROOT / "src" / "gbcluster":
        parser.error(f"gbcluster was not imported from {ROOT / 'src'}")
    result = {"base": {"rev": args.base,
                       "sha": _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()},
              "change": {"sha": _git("rev-parse", "HEAD").strip(),
                         "src_status": _git("status", "--porcelain", "--", "src").splitlines()},
              "numpy": np.__version__, "python": platform.python_version(),
              "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                          "processor": platform.processor() or platform.machine()},
              "pairs": args.pairs, "shuffle_seed": SHUFFLE_SEED, "sets": []}
    with tempfile.TemporaryDirectory() as tmp:
        base = extract_base(args.base, tmp)
        lines = result["src_lines"] = src_lines(base, ROOT / "src" / "gbcluster")
        print(f"src/gbcluster lines: net {lines['net']:+d}; " + ", ".join(
            f"{m} {lines['change'].get(m, 0) - lines['base'].get(m, 0):+d}"
            for m in sorted({*lines["base"], *lines["change"]})), flush=True)
        print(f"base {args.base} against this checkout's src, {args.pairs} pairs a stage",
              flush=True)
        packages = (load_package(base), gbcluster)
        for name in names:
            result["sets"].append(measure(name, packages, points(name), args.pairs,
                                          tmp if SETS[name] is None else None))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, allow_nan=False) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
