"""Time each stage of cluster() alone on the benchmark's blob sets, and the
CLI's stages on the bundled sets; write BENCH_<label>.json.

    python3 tools/stage_times.py --label NAME [--src PATH]

The point sets are perfbench's ``blob_points`` at 2-d 100k and 300k, 8-d 20k
and 100k and 32-d 100k, and five sigma-0.5 blobs on a line at 1-d 100k
(``blob_points`` gives 2-d points for ``dim`` 1), each shuffled with seed 1
as the benchmark's seed 1 does.  Each stage runs on the outputs of the
stages before it, and its time is the minimum of 7 runs: division
(``generate_balls``), the sweep (``_pairwise_center_distances``), overlaps
(``count_overlaps``), merge (``merge_adjacent``) and noise
(``assign_noise``, handed what ``cluster()`` hands it: the sweep, or at
the commits that have them the sweep's strips), then the whole
``cluster()``.  For the sweep the file also records the tile entries
(``distance_evaluations`` over one sweep), the overlapping pairs, the pairs
within reach that do not overlap, the pairs of live centres within
3 * r_max, and the ``tracemalloc`` peaks of one sweep and of one sweep,
overlaps and merge (``geometry_peak_mib``).  ``division_peak_mib`` is the
``tracemalloc`` peak of one ``generate_balls``.

The CLI row covers what ``gbcluster run`` does on the five bundled sets, as
the ``bundled-cli`` workload does: each set, shuffled with seed 1 and
written by ``save_dataset``, goes through ``load_csv``, ``cluster()`` and
``save_results``.  Each stage's time is the minimum of 7 runs on one set,
added over the five sets.

``--src`` is the ``src`` directory of the checkout to measure (default:
this one's), so that two commits can be timed by the same script.  The
sweep's result is either a sweep (overlap counts, roots and the pairs that
do not overlap) or, before it, every pair within reach with its distance;
the pair counts are read from either.  The git SHA recorded is that
checkout's, and ``git_status`` lists what ``git status --porcelain`` shows
of its ``src`` (empty when the timed code is the commit's).  Alternate the
commits and repeat, since the speed of a shared host drifts.  For paired
in-process ratios, use ``tools/ab.py``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETS = (("blobs-1d-100k", 100_000, 1), ("blobs-2d-100k", 100_000, 2), ("blobs-2d-300k", 300_000, 2),
        ("blobs-8d-20k", 20_000, 8), ("blobs-8d-100k", 100_000, 8), ("blobs-32d-100k", 100_000, 32))
LINE_CENTERS = ((0.0,), (6.0,), (12.0,), (18.0,), (24.0,))
SHUFFLE_SEED = 1
REPEAT = 7  # runs per stage; the least time counts


def _best(call):
    """The result of call() and the least wall time of REPEAT calls."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return result, best


def pairs_within(centers: np.ndarray, reach: float) -> int:
    """Pairs of rows of centers (m, d) less than ``reach`` apart, counted by
    blocks of rows against the rows within ``reach`` on the first coordinate."""
    pts = centers[np.argsort(centers[:, 0], kind="stable")]
    x, total, block = pts[:, 0], 0, 256
    for s in range(0, len(pts), block):
        e = min(s + block, len(pts))
        hi = int(np.searchsorted(x, x[e - 1] + reach, side="right"))
        acc = ((pts[s:e, None, :] - pts[None, s:hi, :]) ** 2).sum(axis=-1)
        near = acc < reach * reach
        total += int(np.count_nonzero(np.triu(near, 1)))
    return total


def _git(src: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                          check=True).stdout


def _git_state(src: Path) -> tuple[str | None, list[str] | None]:
    """HEAD of the checkout holding src, and the ``git status --porcelain``
    lines of src; None and None outside a git checkout."""
    try:
        return _git(src, "rev-parse", "HEAD").strip(), _git(src, "status", "--porcelain", "--", ".").splitlines()
    except (OSError, subprocess.CalledProcessError):
        return None, None


def noise_handoff(D, sweep) -> tuple:
    """The arguments past the cluster ids that ``cluster()`` of differentiation
    module D hands ``assign_noise``: the sweep, its strips, or none."""
    params = inspect.signature(D.assign_noise).parameters
    if "_sweep" in params:
        return (sweep,)
    return (sweep.strips,) if "_strips" in params else ()


def points(n: int, dim: int):
    """The set's points in the benchmark's seed-1 order: ``blob_points``, or
    five blobs on a line in 1-d."""
    from workloads import blob_points, shuffled
    from gbcluster.data import GeneratorSpec, generate

    if dim == 1:
        data = generate(GeneratorSpec(family="blobs", n=n, seed=1, scales=0.5, centers=LINE_CENTERS))
    else:
        data = blob_points(n, dim)
    return shuffled(data, SHUFFLE_SEED)[0]


def measure(name: str, n: int, dim: int) -> dict:
    from gbcluster import differentiation as D
    from gbcluster.core import Dataset
    from gbcluster.division import generate_balls

    data = Dataset(points=points(n, dim).points)
    seconds = {}
    ballset, seconds["division"] = _best(lambda: generate_balls(data))
    tracemalloc.start()
    generate_balls(data)
    division_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    D.reset_distance_counter()
    tracemalloc.start()
    sweep = D._pairwise_center_distances(ballset)
    entries = D.distance_evaluations()
    sweep_peak = tracemalloc.get_traced_memory()[1]
    ballset.overlap_counts = D.count_overlaps(ballset, sweep)
    D.merge_adjacent(ballset, sweep)
    geometry_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _, seconds["sweep"] = _best(lambda: D._pairwise_center_distances(ballset))
    _, seconds["overlaps"] = _best(lambda: D.count_overlaps(ballset, sweep))
    ids, seconds["merge"] = _best(lambda: D.merge_adjacent(ballset, sweep))
    extra = noise_handoff(D, sweep)
    _, seconds["noise"] = _best(lambda: D.assign_noise(data, ballset, ids, *extra))
    (assignment, _), seconds["cluster"] = _best(lambda: D.cluster(data))
    live = ~ballset.noise_ball_flags
    overlapping = int(ballset.overlap_counts.sum()) // 2
    kept = getattr(sweep, "kept", None)
    within_reach = overlapping + sum(len(g) for _, g in kept) if kept is not None else len(sweep[1])
    return {
        "name": name, "n": n, "d": dim, "balls": len(ballset), "live_balls": int(live.sum()),
        "clusters": assignment.cluster_count, "noise_points": assignment.noise_count,
        "seconds": seconds, "tile_entries": entries,
        "pairs_overlapping": overlapping, "pairs_apart_within_reach": within_reach - overlapping,
        "pairs_within_3rmax": pairs_within(ballset.centers[live], 3 * float(ballset.radii[live].max())),
        "division_peak_mib": division_peak / 2 ** 20, "sweep_peak_mib": sweep_peak / 2 ** 20,
        "geometry_peak_mib": geometry_peak / 2 ** 20,
    }


def measure_cli() -> dict:
    from workloads import shuffled
    from gbcluster.data import BUNDLED_DATASETS, generate, load_csv, save_dataset, save_results
    from gbcluster.differentiation import cluster

    seconds, rows = dict.fromkeys(("load_csv", "cluster", "save_results"), 0.0), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in sorted(BUNDLED_DATASETS.items()):
            data = shuffled(generate(spec), SHUFFLE_SEED)[0]
            path = os.path.join(tmp, f"{name}.csv")
            save_dataset(path, data)
            ds, t = _best(lambda: load_csv(path, has_header=True, label_column=data.dim))
            seconds["load_csv"] += t
            (assignment, ballset), t = _best(lambda: cluster(ds))
            seconds["cluster"] += t
            _, t = _best(lambda: save_results(os.path.join(tmp, name), ds, assignment, ballset))
            seconds["save_results"] += t
            rows += len(ds)
    return {"name": "bundled-cli", "sets": sorted(BUNDLED_DATASETS), "rows": rows, "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory of the checkout to time")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import gbcluster
    if Path(gbcluster.__file__).resolve().parent != src / "gbcluster":
        parser.error(f"gbcluster was not imported from {src}")
    sha, status = _git_state(src)
    result = {
        "label": args.label, "git_sha": sha, "git_status": status, "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "shuffle_seed": SHUFFLE_SEED, "repeat": REPEAT, "sets": [],
    }
    for name, n, dim in SETS:
        row = measure(name, n, dim)
        result["sets"].append(row)
        stages = "  ".join(f"{k} {v * 1e3:.1f}" for k, v in row["seconds"].items())
        print(f"{name}: m={row['balls']}  {stages} ms  entries {row['tile_entries']:,}  "
              f"overlapping {row['pairs_overlapping']:,}  apart {row['pairs_apart_within_reach']:,}  "
              f"within 3*r_max {row['pairs_within_3rmax']:,}  "
              f"division peak {row['division_peak_mib']:.1f} MiB  "
              f"geometry peak {row['geometry_peak_mib']:.1f} MiB", flush=True)
    result["cli"] = measure_cli()
    stages = "  ".join(f"{k} {v * 1e3:.1f}" for k, v in result["cli"]["seconds"].items())
    print(f"bundled-cli: {result['cli']['rows']:,} rows  {stages} ms", flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
