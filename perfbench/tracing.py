"""Spans around gbcluster's layers, recorded from outside the package.

The tracer replaces functions that ``cluster()`` and ``cli.main()`` reach
through module attributes with wrappers that record a span (name, start,
end, parent) and a few counts, and puts the originals back afterwards.  No
file of the package changes.  A wrapped name that a later version of the
package no longer has is recorded as absent, and every metric that needs it
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import glob
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import checks

# (module the function lives in, attribute, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "save_results", "data.save_results"),
    ("metrics", "rand_index", "metrics.rand_index"),
    ("differentiation", "cluster", "differentiation.cluster"),
    ("division", "generate_balls", "division.generate_balls"),
    ("division", "detect_oversized", "division.detect_oversized"),
    ("division", "split_once", "division.split_once"),
    ("core", "fit_ball", "core.fit_ball"),
    ("differentiation", "_pairwise_center_distances", "differentiation.center_dists"),
    ("differentiation", "count_overlaps", "differentiation.count_overlaps"),
    ("differentiation", "merge_adjacent", "differentiation.merge_adjacent"),
    ("differentiation", "adjacency_graph", "differentiation.adjacency_graph"),
    ("differentiation", "assign_noise", "differentiation.assign_noise"),
)

# Per-layer metrics, each with the wrapped names it needs.
LAYER_METRICS = {
    "division.s": ("division.generate_balls",),
    "division.phase1_s": ("division.generate_balls", "division.detect_oversized"),
    "division.phase2_s": ("division.generate_balls", "division.detect_oversized"),
    "division.balls": ("differentiation.cluster",),
    "division.singleton_balls": ("differentiation.cluster",),
    "division.divide_rounds": ("division.generate_balls", "DivisionTrace"),
    "division.refine_rounds": ("division.generate_balls", "DivisionTrace"),
    "division.round_cap_hit": ("division.generate_balls", "DivisionTrace"),
    "division.split_attempts": ("division.split_once",),
    "division.splits_accepted": ("differentiation.cluster",),
    "division.split_accept_ratio": ("division.split_once", "differentiation.cluster"),
    "core.fit_ball_calls": ("core.fit_ball",),
    "core.fit_ball_s": ("core.fit_ball",),
    "differentiation.center_dists_s": ("differentiation.center_dists",),
    "differentiation.overlaps_s": ("differentiation.count_overlaps",),
    "differentiation.merge_s": ("differentiation.merge_adjacent",),
    "differentiation.noise_attach_s": ("differentiation.assign_noise",),
    "differentiation.pairs_evaluated": ("differentiation.cluster", "distance_evaluations"),
    "differentiation.live_balls": ("differentiation.cluster",),
    "differentiation.adjacency_edges": ("differentiation.adjacency_graph",),
    "differentiation.edge_ratio": ("differentiation.adjacency_graph", "differentiation.cluster",
                                   "distance_evaluations"),
    "differentiation.mean_overlaps": ("differentiation.cluster", "overlap_counts"),
    "differentiation.noise_attached": ("differentiation.cluster",),
    "differentiation.noise_left": ("differentiation.cluster",),
    "data.load_csv_s": ("data.load_csv",),
    "data.save_results_s": ("data.save_results",),
    "data.rows_read": ("data.load_csv",),
    "data.bytes_written": ("data.save_results",),
    "metrics.rand_index_s": ("metrics.rand_index",),
    "cli.run_s": ("cli.main",),
    "cli.self_s": ("cli.main",),
}


def package_references(fn) -> list[tuple]:
    """Every (module, attribute) of the loaded gbcluster package bound to fn,
    so that a replacement reaches callers that imported the name directly."""
    return [(module, name) for key, module in list(sys.modules.items())
            if module is not None and (key == "gbcluster" or key.startswith("gbcluster."))
            for name, value in list(vars(module).items()) if value is fn]


def span_table(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; one thread runs them, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


class Tracer:
    """Wraps the package's layer functions while installed; keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cluster_results: list[tuple] = []
        self.division_traces: list = []
        self._stack: list[int] = []
        self._modules = {name: sys.modules.get(f"gbcluster.{name}")
                         for name in ("cli", "core", "data", "differentiation", "division", "metrics")}
        self.absent: set[str] = set()
        self._sites: list[tuple] = []  # (module, attribute, original, wrapper)
        for home, attr, span in TARGETS:
            original = getattr(self._modules[home], attr, None)
            if original is None:
                self.absent.add(span)
                continue
            wrapper = self._wrap(span, original)
            self._sites += [(module, name, original, wrapper)
                            for module, name in package_references(original)]
        division, differentiation = self._modules["division"], self._modules["differentiation"]
        if getattr(division, "DivisionTrace", None) is None:
            self.absent.add("DivisionTrace")
        if getattr(differentiation, "distance_evaluations", None) is None:
            self.absent.add("distance_evaluations")

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.cluster_results.clear()
        self.division_traces.clear()

    @contextmanager
    def installed(self):
        for module, name, _, wrapper in self._sites:
            setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original, _ in self._sites:
                setattr(module, name, original)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = {"division.generate_balls": self._inject_division_trace,
                  "differentiation.cluster": self._read_evaluations}.get(span_name)
        after = {"division.generate_balls": self._keep_division_trace,
                 "differentiation.cluster": self._keep_cluster_result,
                 "differentiation.adjacency_graph": self._count_edges,
                 "data.load_csv": self._count_rows,
                 "data.save_results": self._count_bytes}.get(span_name)

        def wrapper(*args, **kwargs):
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(fn, args, kwargs)
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs, ctx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inject_division_trace(self, fn, args, kwargs):
        """Hand generate_balls a DivisionTrace when the caller passed none."""
        trace_cls = getattr(self._modules["division"], "DivisionTrace", None)
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except (TypeError, ValueError):
            return args, kwargs, None
        if trace_cls is None or "trace" not in bound.signature.parameters:
            return args, kwargs, None
        if bound.arguments.get("trace") is None:
            bound.arguments["trace"] = trace_cls()
        return bound.args, bound.kwargs, bound.arguments["trace"]

    def _keep_division_trace(self, result, args, kwargs, trace):
        if trace is not None:
            self.division_traces.append(trace)

    def _read_evaluations(self, fn, args, kwargs):
        counter = getattr(self._modules["differentiation"], "distance_evaluations", None)
        return args, kwargs, (counter, counter() if counter is not None else 0)

    def _keep_cluster_result(self, result, args, kwargs, ctx):
        counter, before = ctx
        if counter is not None:
            self.counts["pairs"] += counter() - before
        self.cluster_results.append(result)

    def _count_edges(self, graph, args, kwargs, ctx):
        edges = getattr(graph, "edges", None)
        if edges is None:
            self.absent.add("differentiation.adjacency_graph")
        else:
            self.counts["edges"] += len(edges)

    def _count_rows(self, dataset, args, kwargs, ctx):
        self.counts["rows"] += len(dataset)

    def _count_bytes(self, result, args, kwargs, ctx):
        prefix = str(args[0] if args else kwargs["path_prefix"])
        self.counts["bytes"] += sum(os.path.getsize(p) for p in glob.glob(glob.escape(prefix) + "_*.csv"))

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float | None]:
        """Metrics of the operations traced since the last reset; None marks absent."""
        table = span_table(self.spans)

        def total(name):
            return table.get(name, [0, 0.0, 0.0])[1]

        def calls(name):
            return table.get(name, [0, 0.0, 0.0])[0]

        m: dict[str, float | None] = {
            "division.s": total("division.generate_balls"),
            "core.fit_ball_calls": calls("core.fit_ball"),
            "core.fit_ball_s": total("core.fit_ball"),
            "division.split_attempts": calls("division.split_once"),
            "differentiation.center_dists_s": total("differentiation.center_dists"),
            "differentiation.overlaps_s": total("differentiation.count_overlaps"),
            "differentiation.merge_s": total("differentiation.merge_adjacent"),
            "differentiation.noise_attach_s": total("differentiation.assign_noise"),
            "differentiation.pairs_evaluated": self.counts["pairs"],
            "differentiation.adjacency_edges": self.counts["edges"],
            "data.load_csv_s": total("data.load_csv"),
            "data.save_results_s": total("data.save_results"),
            "data.rows_read": self.counts["rows"],
            "data.bytes_written": self.counts["bytes"],
            "metrics.rand_index_s": total("metrics.rand_index"),
            "cli.run_s": total("cli.main"),
            "cli.self_s": table.get("cli.main", [0, 0.0, 0.0])[2],
        }
        m.update(self._phase_split())
        m.update(self._ball_counts())
        m.update(self._round_counts())
        m["division.split_accept_ratio"] = _ratio(m.get("division.splits_accepted"),
                                                  m["division.split_attempts"])
        m["differentiation.edge_ratio"] = _ratio(m["differentiation.adjacency_edges"],
                                                 m["differentiation.pairs_evaluated"])
        for name, needs in LAYER_METRICS.items():
            if name not in m or any(n in self.absent for n in needs):
                m[name] = None
        return m

    def _phase_split(self) -> dict[str, float | None]:
        """Phase 1 ends where generate_balls first calls detect_oversized."""
        first_check: dict[int, float] = {}
        for name, start, _, parent in self.spans:
            if name == "division.detect_oversized" and parent >= 0 and parent not in first_check:
                first_check[parent] = start
        phase1 = phase2 = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name != "division.generate_balls":
                continue
            if i not in first_check:
                return {"division.phase1_s": None, "division.phase2_s": None}
            phase1 += first_check[i] - start
            phase2 += end - first_check[i]
        return {"division.phase1_s": phase1, "division.phase2_s": phase2}

    def _ball_counts(self) -> dict[str, float | None]:
        balls = singletons = overlaps = attached = left = 0
        overlaps_known = True
        for assignment, ballset in self.cluster_results:
            try:
                members, _ = checks.ball_view(ballset)
            except AttributeError:  # a ball layout ball_view does not know
                self.absent.add("differentiation.cluster")
                return {}
            sizes = np.array([len(mem) for mem in members])
            labels = np.asarray(assignment.labels)
            balls += sizes.size
            singletons += int((sizes == 1).sum())
            counts = getattr(ballset, "overlap_counts", None)
            if counts is None:
                overlaps_known = False
            else:
                overlaps += int(np.asarray(counts)[sizes > 1].sum())
            single_points = np.concatenate([mem for mem in members if len(mem) == 1] or [[]]).astype(np.int64)
            attached += int((labels[single_points] != checks.NOISE).sum())
            left += int((labels == checks.NOISE).sum())
        live = balls - singletons
        if not overlaps_known:
            self.absent.add("overlap_counts")
        return {
            "division.balls": balls,
            "division.singleton_balls": singletons,
            "division.splits_accepted": balls - len(self.cluster_results),  # each split adds one ball
            "differentiation.live_balls": live,
            "differentiation.mean_overlaps": _ratio(overlaps, live),
            "differentiation.noise_attached": attached,
            "differentiation.noise_left": left,
        }

    def _round_counts(self) -> dict[str, float | None]:
        divide = refine = cap = 0
        for trace in self.division_traces:
            phases = [getattr(r, "phase", None) for r in getattr(trace, "rounds", [])]
            divide += phases.count("divide")
            refine += phases.count("refine")
            cap += int(bool(getattr(trace, "round_cap_hit", False)))
        if not self.division_traces:
            return dict.fromkeys(("division.divide_rounds", "division.refine_rounds",
                                  "division.round_cap_hit"))
        return {"division.divide_rounds": divide, "division.refine_rounds": refine,
                "division.round_cap_hit": cap}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0
