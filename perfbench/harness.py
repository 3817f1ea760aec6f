"""Set-up, the timed closed loop and the traced loop for one workload.

Closed loop: one process, one operation at a time, the next starting when
the previous one returns.  Every operation's output is checked outside the
timed region; an operation that raises, exits non-zero, breaks an invariant
or labels the points differently from the first operation counts as failed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import gbcluster.metrics

import checks
from tracing import LAYER_METRICS, Tracer, span_table

SETUP_REPEATS = 3   # setup_s is the median of at least these set-ups,
SETUP_SECONDS = 5.0  # repeated until this long has passed, so cheap ones steady
MIN_OPS = 3         # timed operations per run, however long each takes
MIN_TRACED = 2      # traced and untraced operations each, in a traced run

clock = time.perf_counter


def set_up(workload, seed: int, workdir: str, repeats: int, seconds: float = 0.0):
    """Build the inputs and run one warm-up operation, at least `repeats`
    times and until `seconds` have passed.

    Returns the last state, the set-up times, and the first warm-up's
    outcome, which every later operation must reproduce.
    """
    times, reference = [], None
    while len(times) < repeats or sum(times) < seconds:
        t0 = clock()
        state = workload.setup(seed, workdir)
        raw = workload.run(state)
        times.append(clock() - t0)
        outcome = workload.check(state, raw)
        if reference is None:
            reference = outcome
        elif outcome.digest != reference.digest:
            reference.problems.append("set-up operations labelled the points differently")
    return state, times, reference


def one_op(workload, state, reference):
    """Run and check one operation: (seconds or None if it raised, problems)."""
    t0 = clock()
    try:
        raw = workload.run(state)
    except Exception as exc:  # a raising operation is counted as failed; the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = clock() - t0
    outcome = workload.check(state, raw)
    problems = list(outcome.problems)
    if outcome.digest != reference.digest:
        problems.append("labels differ from the first operation's")
    return seconds, problems


class Loop:
    """Tallies of a run's operations."""

    def __init__(self):
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, seconds, problems, traced=False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        if seconds is not None:
            (self.traced_times if traced else self.times).append(seconds)


def timed_loop(workload, state, reference, seconds: float) -> Loop:
    loop = Loop()
    start = clock()
    while clock() - start < seconds or loop.attempted < MIN_OPS:
        loop.record(*one_op(workload, state, reference))
    return loop


def traced_loop(workload, state, reference, seconds: float, tracer: Tracer):
    """Alternate untraced and traced operations; returns the loop and the
    first traced operation's spans."""
    loop = Loop()
    first_spans = None
    start = clock()
    i = 0
    while clock() - start < seconds or i < 2 * MIN_TRACED:
        if i % 2 == 0:
            loop.record(*one_op(workload, state, reference))
        else:
            tracer.reset()
            with tracer.installed():
                result = one_op(workload, state, reference)
            loop.record(*result, traced=True)
            loop.layers.append(tracer.layer_metrics())
            if first_spans is None:
                first_spans = [list(s) for s in tracer.spans]
        i += 1
    return loop, first_spans


def quality(state, reference) -> dict:
    """Scores of the reference labels against the generator labels, and the
    Rand-index cross-check against gbcluster.metrics.rand_index."""
    aris, k_found, k_true, k_off, clustered, mismatches = [], 0, 0, 0, 0, []
    for i, (truth, pred) in enumerate(zip(state.truth, reference.labels)):
        table = checks.contingency(truth, pred)
        aris.append(checks.adjusted_rand_index(table))
        found, true = checks.cluster_count(pred), checks.cluster_count(truth)
        k_found, k_true, k_off = k_found + found, k_true + true, k_off + abs(found - true)
        clustered += int((np.asarray(pred) != checks.NOISE).sum())
        ri = checks.rand_index(table)
        for source, other in (("gbcluster.metrics.rand_index", gbcluster.metrics.rand_index(truth, pred)),
                              ("the run summary", reference.reported_rand_index[i])):
            if other is not None and abs(ri - other) > 1e-12:
                mismatches.append(f"input {i}: Rand index {ri!r} from the table, {other!r} from {source}")
    return {"ari": statistics.fmean(aris), "k_found": k_found, "k_true": k_true, "k_off": k_off,
            "clustered_frac": clustered / state.points, "ri_mismatches": mismatches}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(name: str, workload, seed: int, seconds: float, trace: bool, workdir: str,
        import_s: float):
    """Run one workload; returns (report lines, result object with bare metric
    values, None for an absent one, and the first traced operation's spans)."""
    if trace:
        state, setup_times, reference = set_up(workload, seed, workdir, 1)
    else:
        state, setup_times, reference = set_up(workload, seed, workdir, SETUP_REPEATS, SETUP_SECONDS)
    q = quality(state, reference)
    if trace:
        loop, spans = traced_loop(workload, state, reference, seconds, Tracer())
    else:
        loop, spans = timed_loop(workload, state, reference, seconds), None
    problems = reference.problems + q["ri_mismatches"] + loop.problems
    k_excess = q["k_found"] - q["k_true"]
    lines = [f"workload {name} seed {seed}: {loop.attempted} operations, "
             f"{loop.failed} failed (failed_frac {loop.failed / loop.attempted:g}), "
             f"{len(setup_times)} set-ups",
             f"labels sha256 {reference.digest} (in the generator's point order)",
             f"clusters {q['k_found']} (true {q['k_true']}, k_excess {k_excess}), "
             f"noise_frac {1 - q['clustered_frac']:.6g}"]
    lines += [f"problem: {p}" for p in problems[:20]]
    if trace:
        metrics = _layer_medians(loop.layers)
        metrics["trace.wall_s"] = statistics.median(loop.traced_times)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(loop.times)
        metrics["output.noise_frac"] = 1 - q["clustered_frac"]
        absent = sorted(k for k, v in metrics.items() if v is None)
        lines.append(f"tracing overhead {metrics['trace.overhead_s']:.4f} s per operation "
                     f"(traced median of {len(loop.traced_times)} minus untraced median of "
                     f"{len(loop.times)})")
        lines.append(f"absent: {', '.join(absent) if absent else 'none'}")
        lines.append("span                             calls     total_s      self_s")
        for span, (calls, total, self_s) in span_table(spans or []).items():
            lines.append(f"{span:32s} {calls:6d} {total:11.4f} {self_s:11.4f}")
    else:
        wall = statistics.median(loop.times)
        metrics = {
            "wall_s": wall,
            "points_per_s": state.points / wall,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": import_s + statistics.median(setup_times),
            "ari": q["ari"],
            # 1 + |found - true| / true, summed over the inputs: 1 when every
            # input has its true cluster count, larger for too many or too few.
            "k_error": 1 + q["k_off"] / q["k_true"],
            "clustered_frac": q["clustered_frac"],
        }
        lines.append(f"wall_s is the median of {len(loop.times)} operations "
                     f"({', '.join(f'{t:.3f}' for t in sorted(loop.times))} s); setup_s is "
                     f"import time ({import_s:.3f} s) plus the median of set-ups "
                     f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return lines, result, spans


def _layer_medians(layers: list[dict]) -> dict:
    out = {}
    for name in LAYER_METRICS:
        values = [m[name] for m in layers if m.get(name) is not None]
        if values:  # counts repeat exactly, so they stay whole numbers
            exact = all(isinstance(v, int) for v in values)
            out[name] = (statistics.median_low if exact else statistics.median)(values)
        else:
            out[name] = None
    return out


def dump_spans(path: str, spans) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)
