"""Paired, in-process timing of division, the geometry stages, cluster() and the CLI at two commits.

    python3 tools/ab.py [--base REV] [--pairs N] [--sets NAME,...] [--peak]

The base is ``src/gbcluster`` at REV (default HEAD), taken with
``git archive`` into a temporary directory and imported as the package
``gbcluster_base``; ``src/`` uses only relative imports, so both copies load
side by side.  The change is this checkout's ``src/gbcluster`` as it is on
disk.  The point sets are ``tools/stage_times.py``'s, and the ball set is
divided once by each copy (the two must agree).

Each pair calls one stage on the same inputs in both copies, the base first
in even pairs and the change first in odd ones.  The stages are division
(``generate_balls``), the sweep (``_pairwise_center_distances``), merge
(``merge_adjacent``), noise (``assign_noise``, handed what ``cluster()``
hands it), the sweep, overlaps (``count_overlaps``) and merge in a row
(``geometry``), and the whole ``cluster()``.  Overlaps has no stage of its
own: it reads the counts the sweep kept, below what a pair of calls
resolves.  For each stage, the tool prints the median of the paired ratios
change / base, their interquartile range, and the pairs the change won
(ratio below 1).  It checks that both copies give the same labels and
overlap counts from ``cluster()``, and prints each copy's distance
evaluations, which a change may mean to alter.  With ``--peak`` it also
prints the ``tracemalloc`` peaks of one division and one geometry run per
copy.

The set ``bundled-cli`` times division and ``cluster()`` over the five
bundled sets, and ``cli.main(["run", "--algo", "gbc", ...])`` over them as
the benchmark's ``bundled-cli`` workload runs it: each set shuffled with
seed 1 and written once to a temporary directory.  Its check is that both
copies write the same points and balls files.

Run it on an idle host: a paired ratio cancels slow drift of the host, not
a second load that arrives within one pair.  Against the commit itself
(``--base HEAD`` on a clean checkout) it measures its own noise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_base(rev: str, tmp: str, name: str = "gbcluster_base"):
    """The package ``src/gbcluster`` of commit rev, imported as ``name``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/gbcluster"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    package = Path(tmp) / "src" / "gbcluster"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stage_calls(pkg, data, ballset) -> dict:
    """One call of each stage of package pkg, on ballset's own sweep where a
    stage reads one."""
    from stage_times import noise_handoff

    D = pkg.differentiation
    sweep = D._pairwise_center_distances(ballset)
    ballset.overlap_counts = D.count_overlaps(ballset, sweep)
    ids, extra = D.merge_adjacent(ballset, sweep), noise_handoff(D, sweep)

    def geometry():
        s = D._pairwise_center_distances(ballset)
        D.count_overlaps(ballset, s)
        return D.merge_adjacent(ballset, s)

    return {"division": lambda: pkg.division.generate_balls(data),
            "sweep": lambda: D._pairwise_center_distances(ballset),
            "merge": lambda: D.merge_adjacent(ballset, sweep),
            "noise": lambda: D.assign_noise(data, ballset, ids, *extra),
            "geometry": geometry,
            "cluster": lambda: D.cluster(data)}


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _peak(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def blob_sides(packages, n: int, dim: int) -> tuple[list[dict], str]:
    """Each copy's stage calls on the point set, and what the two give."""
    from stage_times import points

    data = points(n, dim)
    sides = []
    for pkg in packages:
        D = pkg.differentiation
        ds = pkg.core.Dataset(points=data.points)
        ballset = pkg.division.generate_balls(ds)
        D.reset_distance_counter()
        assignment, balls = D.cluster(ds)
        evals = D.distance_evaluations()  # of this one cluster()
        sides.append((stage_calls(pkg, ds, ballset), ballset, assignment, balls, evals))
    (base, base_balls, *base_out), (change, change_balls, *change_out) = sides
    same_balls = all(np.array_equal(getattr(base_balls, k), getattr(change_balls, k))
                     for k in ("order", "sizes", "centers", "radii"))
    same = (np.array_equal(base_out[0].labels, change_out[0].labels)
            and np.array_equal(base_out[1].overlap_counts, change_out[1].overlap_counts))
    return [base, change], (f"m={len(change_balls):,}  balls identical: {same_balls}  "
                            f"labels and overlap counts identical: {same}  distance evaluations "
                            f"{base_out[2]:,} base, {change_out[2]:,} change")


def cli_sides(packages, tmp: str) -> tuple[list[dict], str]:
    """Each copy's ``cluster()`` and ``gbcluster run`` over the five bundled
    sets, and whether the two write the same files."""
    from workloads import shuffled
    from gbcluster.data import BUNDLED_DATASETS, generate, save_dataset
    from stage_times import SHUFFLE_SEED

    names = sorted(BUNDLED_DATASETS)
    data = [shuffled(generate(BUNDLED_DATASETS[name]), SHUFFLE_SEED)[0] for name in names]
    for name, ds in zip(names, data):
        save_dataset(os.path.join(tmp, f"{name}.csv"), ds)
    sides = []
    for k, pkg in enumerate(packages):
        cli = importlib.import_module(f"{pkg.__name__}.cli")
        sets = [pkg.core.Dataset(points=ds.points) for ds in data]

        def run(cli=cli, k=k):
            with contextlib.redirect_stdout(io.StringIO()):
                return [cli.main(["run", "--algo", "gbc", "--in", os.path.join(tmp, f"{name}.csv"),
                                  "--out", os.path.join(tmp, f"{k}-{name}")]) for name in names]

        def division(divide=pkg.division.generate_balls, sets=sets):
            for ds in sets:
                divide(ds)

        def cluster(D=pkg.differentiation, sets=sets):
            for ds in sets:
                D.cluster(ds)

        sides.append({"division": division, "cluster": cluster, "cli": run})
    codes = [side["cli"]() for side in sides]
    same = all(Path(tmp, f"0-{name}_{part}.csv").read_bytes() == Path(tmp, f"1-{name}_{part}.csv").read_bytes()
               for name in names for part in ("points", "balls"))
    return sides, (f"{sum(len(ds) for ds in data):,} rows  exit codes {codes[0]} base, {codes[1]} change  "
                   f"points and balls files identical: {same}")


def compare(name: str, sides: list[dict], note: str, pairs: int, peak: bool) -> None:
    print(f"{name}: {note}", flush=True)
    base, change = sides
    for stage in change:
        ratios = []
        for k in range(pairs):
            if k % 2:
                t_change, t_base = _seconds(change[stage]), _seconds(base[stage])
            else:
                t_base, t_change = _seconds(base[stage]), _seconds(change[stage])
            ratios.append(t_change / t_base)
        q25, q50, q75 = np.percentile(ratios, [25, 50, 75])
        won = sum(r < 1 for r in ratios)
        print(f"  {stage:9s} ratio {q50:.3f} [IQR {q25:.3f}-{q75:.3f}]  won {won} of {pairs}", flush=True)
    for stage in ("division", "geometry") if peak else ():
        if stage in change:
            print(f"  {stage} tracemalloc peak: base {_peak(base[stage]):.1f} MiB, "
                  f"change {_peak(change[stage]):.1f} MiB", flush=True)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    from stage_times import SETS

    sets = {name: (n, dim) for name, n, dim in SETS}
    sets["blobs-2d-1m"] = (1_000_000, 2)
    sets["bundled-cli"] = None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit whose src/gbcluster is the base")
    parser.add_argument("--pairs", type=int, default=30, help="pairs of calls per stage")
    parser.add_argument("--sets", default="blobs-2d-100k,blobs-8d-20k,bundled-cli",
                        help=f"comma-separated, from: {', '.join(sets)}")
    parser.add_argument("--peak", action="store_true",
                        help="print the division's and geometry's tracemalloc peaks")
    args = parser.parse_args(argv)
    names = args.sets.split(",")
    unknown = [s for s in names if s not in sets]
    if unknown or args.pairs < 1:
        parser.error(f"unknown sets: {unknown}" if unknown else "--pairs must be at least 1")
    import gbcluster
    if Path(gbcluster.__file__).resolve().parent != ROOT / "src" / "gbcluster":
        parser.error(f"gbcluster was not imported from {ROOT / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        packages = (load_base(args.base, tmp), gbcluster)
        print(f"base {args.base} against this checkout's src, {args.pairs} pairs a stage", flush=True)
        for name in names:
            sides = cli_sides(packages, tmp) if sets[name] is None else blob_sides(packages, *sets[name])
            compare(name, *sides, args.pairs, args.peak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
