"""Command-line interface: generate data, run clustering, evaluate, benchmark.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric/validation
error.  All randomness flows from --seed; identical invocations on identical
inputs write byte-identical CSV files (the JSON summaries additionally carry
wall-clock timings).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import MISSING, fields
from typing import Sequence

import numpy as np

from . import __version__
from .baselines import DbscanConfig, DpeakConfig, KMeansConfig, dbscan, dpeak, kmeans
from .data import (BUNDLED_DATASETS, FAMILIES, GeneratorSpec, generate,
                   load_csv, save_dataset, save_results)
from .differentiation import cluster
from .division import DivisionTrace
from .metrics import BenchReport, benchmark, rand_index

# Each baseline's function and config class.  The config's fields are the
# baseline's `run` flags (``min_pts`` is ``--min-pts``), and a field without
# a default is a required flag.  Any other baseline flag is a usage error.
BASELINES = {
    "kmeans": (kmeans, KMeansConfig),
    "dbscan": (dbscan, DbscanConfig),
    "dpeak": (dpeak, DpeakConfig),
}
ALGORITHMS = ("gbc", *BASELINES)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVALID = 3

# Baseline parameters used by `bench` for each bundled dataset (gbc takes
# none).  These are fixed, documented choices, not auto-tuned values.
BENCH_BASELINES: dict[str, dict] = {
    "moons1k": {"kmeans": KMeansConfig(k=2, seed=1), "dbscan": DbscanConfig(eps=0.1, min_pts=5),
                "dpeak": DpeakConfig(dc=0.15, k=2)},
    "blobs5": {"kmeans": KMeansConfig(k=5, seed=1), "dbscan": DbscanConfig(eps=0.25, min_pts=5),
               "dpeak": DpeakConfig(dc=0.3, k=5)},
    "circles3": {"kmeans": KMeansConfig(k=3, seed=1), "dbscan": DbscanConfig(eps=0.12, min_pts=4),
                 "dpeak": DpeakConfig(dc=0.15, k=3)},
    "spirals2": {"kmeans": KMeansConfig(k=2, seed=1), "dbscan": DbscanConfig(eps=0.15, min_pts=4),
                 "dpeak": DpeakConfig(dc=0.2, k=2)},
    "blobs10k": {"kmeans": KMeansConfig(k=5, seed=1), "dbscan": DbscanConfig(eps=0.2, min_pts=5),
                 "dpeak": DpeakConfig(dc=0.2, k=5)},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gbcluster", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gbcluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic dataset CSV")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", choices=FAMILIES, help="generator family")
    src.add_argument("--dataset", choices=sorted(BUNDLED_DATASETS),
                     help="bundled dataset name (overrides the other generator flags)")
    gen.add_argument("--n", type=int, default=1000, help="number of points (default 1000)")
    gen.add_argument("--noise", type=float, default=0.0, help="coordinate noise sigma (default 0)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="cluster a CSV file and write result files")
    run.add_argument("--algo", choices=ALGORITHMS, required=True)
    run.add_argument("--in", dest="infile", required=True, help="input CSV path")
    run.add_argument("--out", default="results", help="output prefix (default 'results')")
    run.add_argument("--no-header", action="store_true", help="input has no header row")
    run.add_argument("--label-column", type=int, default=None,
                     help="0-based ground-truth column to strip (default: a column "
                          "named 'label', case and spaces aside, when the file has a header)")
    run.add_argument("--seed", type=int, default=None,
                     help="seed for seeded algorithms (kmeans; default 0)")
    run.add_argument("--k", type=int, default=None, help="cluster count (kmeans, dpeak)")
    run.add_argument("--eps", type=float, default=None, help="neighborhood radius (dbscan)")
    run.add_argument("--min-pts", type=int, default=None, help="core threshold (dbscan)")
    run.add_argument("--dc", type=float, default=None, help="cutoff distance (dpeak)")
    run.add_argument("--verbose", action="store_true", help="print the division trace (gbc only)")

    ev = sub.add_parser("eval", help="Rand index between two label columns")
    ev.add_argument("--truth", required=True, help="CSV with ground-truth labels")
    ev.add_argument("--pred", required=True, help="CSV with predicted labels")
    ev.add_argument("--truth-col", type=int, default=-1,
                    help="label column in --truth (default: last)")
    ev.add_argument("--pred-col", type=int, default=-1,
                    help="label column in --pred (default: last)")
    ev.add_argument("--no-header", action="store_true", help="files have no header row")

    bench = sub.add_parser("bench", help="benchmark algorithms over bundled datasets")
    bench.add_argument("--algos", default="gbc,kmeans,dbscan,dpeak",
                       help="comma-separated algorithms (default: all)")
    bench.add_argument("--data", required=True,
                       help=f"comma-separated bundled names from: {', '.join(sorted(BUNDLED_DATASETS))}")
    bench.add_argument("--repetitions", type=int, default=3,
                       help="timing repetitions per cell; the median is reported (default 3)")
    bench.add_argument("--out", default=None, help="write the table as CSV (+ .json summary)")
    return parser


def _cmd_gen(args) -> int:
    if args.dataset is not None:
        if args.seed < 0:  # the bundled spec overrides the seed, not its check
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        spec = BUNDLED_DATASETS[args.dataset]
    else:
        spec = GeneratorSpec(family=args.family, n=args.n, noise_sigma=args.noise, seed=args.seed)
    save_dataset(args.out, generate(spec))
    print(f"wrote {spec.n} points to {args.out}")
    return EXIT_OK


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_run(args) -> int:
    run, config = BASELINES.get(args.algo, (None, None))
    params = fields(config) if config else ()
    takes = [f.name for f in params]
    # every baseline's fields, those without a default first, so that --seed is last
    every = sorted({f.name: f for _, c in BASELINES.values() for f in fields(c)}.values(),
                   key=lambda f: f.default is not MISSING)
    extra = [_flag(f.name) for f in every if getattr(args, f.name) is not None and f.name not in takes]
    if extra:
        what = (f"takes only {' and '.join(map(_flag, takes))}" if takes
                else "takes no algorithm parameters")
        raise UsageError(f"{', '.join(extra)}: {args.algo} {what}; drop the flag or pick "
                         f"{'another algorithm' if takes else 'a baseline'} with --algo")
    needs = [f.name for f in params if f.default is MISSING]
    if any(getattr(args, name) is None for name in needs):
        example = BENCH_BASELINES["moons1k"][args.algo]
        raise UsageError(f"{args.algo} needs {' and '.join(map(_flag, needs))}; try "
                         + " ".join(f"{_flag(name)} {getattr(example, name)}" for name in needs))
    if args.verbose and args.algo != "gbc":
        raise UsageError(f"--verbose: {args.algo} has no division trace to print; "
                         "drop the flag or pick gbc with --algo")
    label_column = "label" if args.label_column is None and not args.no_header else args.label_column
    dataset = load_csv(args.infile, has_header=not args.no_header, label_column=label_column)
    trace = None
    ballset = None
    t0 = time.perf_counter()
    if args.algo == "gbc":
        trace = DivisionTrace()
        assignment, ballset = cluster(dataset, trace=trace)
    else:
        given = {name: getattr(args, name) for name in takes}
        assignment = run(dataset, config(**{k: v for k, v in given.items() if v is not None}))
    wall = time.perf_counter() - t0

    if args.verbose and trace is not None:
        for i, r in enumerate(trace.rounds, start=1):
            print(f"round {i} [{r.phase}]: balls={r.ball_count} "
                  f"splits={r.split_count} oversized={r.oversized_count}")
        if trace.round_cap_hit:
            print("warning: refinement round cap reached with oversized balls left")
        print(f"refinement stopped: {trace.stop_reason}")

    save_results(args.out, dataset, assignment, ballset)
    ri = None
    if dataset.labels is not None and len(dataset) >= 2:  # undefined for one point
        ri = rand_index(dataset.labels, assignment.labels)
    summary = {
        "algorithm": args.algo,
        "input": args.infile,
        "n_points": len(dataset),
        "dim": dataset.dim,
        "cluster_count": assignment.cluster_count,
        "noise_count": assignment.noise_count,
        "ball_count": len(ballset) if ballset is not None else None,
        "round_cap_hit": trace.round_cap_hit if trace is not None else None,
        "rand_index": ri,
        "wall_time_s": wall,
        "seed": 0 if args.seed is None else args.seed,
    }
    with open(args.out + "_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"clusters={assignment.cluster_count} noise={assignment.noise_count}"
          + (f" rand_index={ri:.4f}" if ri is not None else "")
          + f" -> {args.out}_points.csv")
    return EXIT_OK


def _label_vector(path, col: int, has_header: bool) -> np.ndarray:
    ds = load_csv(path, has_header=has_header, label_column=col)
    if ds.labels is None:
        raise ValueError(f"{path}: no label column parsed")
    return ds.labels


def _cmd_eval(args) -> int:
    truth = _label_vector(args.truth, args.truth_col, not args.no_header)
    pred = _label_vector(args.pred, args.pred_col, not args.no_header)
    if truth.size != pred.size:
        raise ValueError(f"label counts differ: {args.truth} has {truth.size}, "
                         f"{args.pred} has {pred.size}")
    # undefined for one point, as in the run summary
    print("rand_index", "null" if truth.size < 2 else f"{rand_index(truth, pred):.6f}")
    return EXIT_OK


def _bench_runner(algo: str, dataset_name: str):
    if algo == "gbc":
        return lambda ds: cluster(ds)[0]
    run, params = BASELINES[algo][0], BENCH_BASELINES[dataset_name][algo]
    return lambda ds: run(ds, params)


def _cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise UsageError(f"--repetitions must be >= 1, got {args.repetitions}")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    names = [d.strip() for d in args.data.split(",") if d.strip()]
    for flag, what, given, known in (("--algos", "algorithm", algos, ALGORITHMS),
                                     ("--data", "dataset", names, sorted(BUNDLED_DATASETS))):
        choose = f"choose from {', '.join(known)}"
        if not given:
            raise UsageError(f"{flag}: names no {what}; {choose}")
        for x in given:
            if x not in known:
                raise UsageError(f"unknown {what} {x!r}; {choose}")
    reports: list[BenchReport] = []
    for name in names:
        ds = generate(BUNDLED_DATASETS[name])
        for algo in algos:
            report = benchmark(_bench_runner(algo, name), ds, repetitions=args.repetitions,
                               algorithm=algo, dataset_name=name)
            reports.append(report)
            print(f"{name:>10s} {algo:>7s}: {report.wall_time:9.4f}s  "
                  f"rand_index={report.rand_index:.4f}  clusters={report.cluster_count}  "
                  f"noise={report.noise_count}")
    if args.out:
        rows = [r.as_dict() for r in reports]
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0])
            writer.writerows(["" if v is None else f"{v:.6f}" if isinstance(v, float) else v
                              for v in row.values()] for row in rows)
        with open(args.out + ".json", "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "eval": _cmd_eval, "bench": _cmd_bench}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}\nrun 'gbcluster --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}\nrun 'gbcluster {args.command} --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: file not found; check the path", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}; check the path and permissions", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}\nfix the offending value and rerun", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
