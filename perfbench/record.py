"""Run the benchmark over several seeds and record the numbers.

    python3 perfbench/record.py --out perfbench/baseline.json

Each workload runs with seeds 1..SEEDS untraced and 1..TRACED_SEEDS traced,
each run in a fresh process, as `run.py` expects, for the `run_seconds` in
BENCHMARK.json.  For every end-to-end metric the record holds the values,
their median and quartiles, and the spread: the distance between the
quartiles as a share of the median, set against the metric's bound.  Each
seed's label digest is kept as printed.  Traced runs add the per-layer
medians.  The machine, Python and numpy versions and the git commit are
recorded beside the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10          # untraced runs per workload, as the acceptance rules take them
TRACED_SEEDS = 2    # traced runs per workload
DIGEST_LINE = "labels sha256 "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The run's JSON result and its label digest."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line[len(DIGEST_LINE):].split()[0] for line in lines if line.startswith(DIGEST_LINE))
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs, digests = [], {}
        for seed in range(1, SEEDS + 1):
            result, digests[seed] = run_once(name, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "label_digests": digests,
                 "end_to_end": {}}
        for metric in bounds:
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bounds[metric]
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {metric:16s} median {s['median']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {bounds[metric]}){flag}", flush=True)
        traced = [run_once(name, seed, bench["run_seconds"], 1)[0]
                  for seed in range(1, TRACED_SEEDS + 1)]
        layer_names = sorted({k for r in traced for k in r["metrics"]})
        entry["per_layer_median"] = {
            k: statistics.median([r["metrics"][k]["value"] for r in traced if k in r["metrics"]])
            for k in layer_names}
        entry["per_layer_absent"] = sorted({m["name"] for m in bench["per_layer"]} - set(layer_names))
        entry["traced_runs"] = len(traced)
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
