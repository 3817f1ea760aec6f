"""gbcluster benchmark: one workload, one closed loop, one JSON result.

    python3 perfbench/run.py --workload blobs-2d-100k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from a run that
alternates untraced and traced operations.  Human-readable lines come first;
the last line of standard output is the JSON result.  The process should run
one workload only, since peak_rss_mb is the peak of the whole process.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_package():
    """Import gbcluster from this checkout's src; None when it is not there."""
    src = ROOT / "src"
    if not (src / "gbcluster" / "__init__.py").is_file():
        return None
    # One process, one thread: keep numerical libraries from starting pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import gbcluster
    if Path(gbcluster.__file__).resolve().parent != (src / "gbcluster").resolve():
        return None
    return gbcluster


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
    except FileNotFoundError:
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if _import_package() is None:
        print(f"error: gbcluster sources not found under {ROOT / 'src'}; "
              "run from the root of a gbcluster checkout", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lines, result, spans = harness.run(args.workload, WORKLOADS[args.workload], args.seed,
                                           args.seconds, bool(args.trace), str(workdir), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    undeclared = set(result["metrics"]) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()
                         if result["metrics"].get(name) is not None}
    if spans is not None:
        spans_dir = BENCH_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"{args.workload}-seed{args.seed}.json"
        harness.dump_spans(str(path), spans)
        lines.append(f"spans of the first traced operation: {path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
