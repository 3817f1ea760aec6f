"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one operation (the unit
the closed loop times), and checks that operation's output.  The program is
handed only the generated points; ground-truth labels stay here.

Why these three:
- blobs-2d-100k: geometry- and memory-heavy.  The dense centre-distance pass
  over m = 8,685 balls (seed 1) does most of the work; adjacency is sparse,
  and tails fragment the result, so noise attachment and phase 2 run too.
- blobs-8d-20k: the same differentiation layer used the other way round.
  Adjacency is dense (about 20% of ball pairs), so the Python edge list and
  union-find cost more than the distance pass.  At 50,000 points the same
  set's (m, m, d) distance array outgrows the cache, and run medians spread
  by 0.15-0.24 (interquartile range over median) across ten seeds, against
  about 0.05 at 20,000.
- bundled-cli: small inputs through the command line.  Division dominates
  cluster(), and CSV load/save is a third of the pass; it is the only
  workload where the data and cli layers do real work.

The point sets are fixed: the blobs are drawn with generator seed 1 (the
ROADMAP's 100k row: m = 8,685 balls, K = 260) and the bundled sets are used as
shipped.  The workload seed shuffles the order of the points; seed 0 keeps
the generator's order.  Drawing the points from the workload seed instead
moves m, and with it time, memory and K, by more than any bound could allow:
over seeds 1-10 the 2-d set gave m = 7,381-9,296 and cluster() 6.0-11.3 s,
and the bundled sets a mean ARI of 0.76-0.998.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from gbcluster import cli, differentiation
from gbcluster.core import Dataset
from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate, save_dataset

import checks
from tracing import package_references

BLOB_CENTERS = BUNDLED_DATASETS["blobs10k"].centers
BLOB_SIGMA = 0.5
DATA_SEED = 1


@dataclass
class Outcome:
    """What one operation produced: a label vector per input, and any broken invariants."""

    labels: list[np.ndarray]
    problems: list[str]
    orders: list[np.ndarray]
    reported_rand_index: list[float | None] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Digest of the labels put back in the generator's order, so that it
        depends on the program's output and not on the workload seed."""
        return checks.label_digest(checks.unshuffle(lab, order)
                                   for lab, order in zip(self.labels, self.orders))


@dataclass
class State:
    points: int
    truth: list[np.ndarray]
    inputs: list
    orders: list[np.ndarray]   # input i holds generator points orders[i]


def blob_points(n: int, dim: int) -> Dataset:
    """Five sigma-0.5 blobs around the blobs10k centres; extra coordinates of
    the centres are drawn uniformly from [-3, 9]."""
    centers = np.asarray(BLOB_CENTERS, dtype=np.float64)
    if dim > centers.shape[1]:
        extra = np.random.default_rng(DATA_SEED).uniform(-3.0, 9.0, size=(len(centers), dim - centers.shape[1]))
        centers = np.hstack([centers, extra])
    spec = GeneratorSpec(family="blobs", n=n, seed=DATA_SEED, scales=BLOB_SIGMA,
                         centers=tuple(tuple(float(v) for v in c) for c in centers))
    return generate(spec)


def shuffled(data: Dataset, seed: int) -> tuple[Dataset, np.ndarray]:
    """The points in an order drawn from the seed, and that order; seed 0
    keeps the generator's order."""
    order = np.arange(len(data)) if seed == 0 else np.random.default_rng(seed).permutation(len(data))
    return Dataset(points=data.points[order], labels=data.labels[order]), order


def _capture_round_cap(call):
    """Run call(), returning its result and whether it warned that the
    refinement round cap was hit.  Only that warning counts: any other one
    leaves the oversize check on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, any("round cap" in str(w.message) for w in caught)


@contextlib.contextmanager
def keeping_cluster_results(results: list):
    """Append every (assignment, ballset) that differentiation.cluster returns
    while active, wherever the package calls it from."""
    original = differentiation.cluster

    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    sites = package_references(original)
    for module, name in sites:
        setattr(module, name, keep)
    try:
        yield results
    finally:
        for module, name in sites:
            setattr(module, name, original)


class Blobs:
    """One cluster() call on generated Gaussian blobs."""

    def __init__(self, n: int, dim: int):
        self.n, self.dim = n, dim

    def setup(self, seed: int, workdir: str) -> State:
        data, order = shuffled(blob_points(self.n, self.dim), seed)
        return State(points=self.n, truth=[data.labels], inputs=[Dataset(points=data.points)],
                     orders=[order])

    def run(self, state: State):
        return _capture_round_cap(lambda: differentiation.cluster(state.inputs[0]))

    def check(self, state: State, raw) -> Outcome:
        (assignment, ballset), round_cap_hit = raw
        labels = np.asarray(assignment.labels)
        members, radii = checks.ball_view(ballset)
        problems = (checks.label_problems(labels, self.n)
                    + checks.ball_problems(members, radii, self.n, round_cap_hit))
        return Outcome(labels=[labels], problems=problems, orders=state.orders,
                       reported_rand_index=[None])


@dataclass
class CliInput:
    name: str
    csv: str
    prefix: str
    n: int
    dim: int


class BundledCli:
    """One in-process `gbcluster run --algo gbc` per bundled dataset, reading
    CSVs written during set-up.  The ball sets that cluster() returns inside
    each run are kept, so the partition is checked as on the blobs."""

    def setup(self, seed: int, workdir: str) -> State:
        inputs, truth, orders = [], [], []
        for name, spec in sorted(BUNDLED_DATASETS.items()):
            data, order = shuffled(generate(spec), seed)
            path = os.path.join(workdir, f"{name}.csv")
            save_dataset(path, data)
            inputs.append(CliInput(name, path, os.path.join(workdir, f"{name}_gbc"), len(data), data.dim))
            truth.append(data.labels)
            orders.append(order)
        return State(points=sum(i.n for i in inputs), truth=truth, inputs=inputs, orders=orders)

    def run(self, state: State):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for i in state.inputs:
                with keeping_cluster_results([]) as results:
                    code = cli.main(["run", "--algo", "gbc", "--in", i.csv, "--out", i.prefix])
                codes.append((code, results))
        return codes

    def check(self, state: State, runs) -> Outcome:
        labels, problems, reported = [], [], []
        for inp, (code, results) in zip(state.inputs, runs):
            if code != 0:
                problems.append(f"{inp.name}: exit code {code}")
                labels.append(np.full(inp.n, -2))
                reported.append(None)
                continue
            lab = np.loadtxt(inp.prefix + "_points.csv", delimiter=",", skiprows=1,
                             usecols=inp.dim, dtype=np.int64, ndmin=1)
            balls = np.loadtxt(inp.prefix + "_balls.csv", delimiter=",", skiprows=1, ndmin=2)
            with open(inp.prefix + "_summary.json") as fh:
                summary = json.load(fh)
            found = checks.label_problems(lab, inp.n)
            if len(results) != 1:
                found.append(f"cluster() returned {len(results)} times, expected once")
            else:
                (assignment, ballset), = results
                members, radii = checks.ball_view(ballset)
                found += checks.ball_problems(members, radii, inp.n, bool(summary["round_cap_hit"]))
                if not np.array_equal(np.asarray(assignment.labels), lab):
                    found.append("points file labels differ from cluster()'s")
            if summary["ball_count"] != len(balls):
                found.append("summary ball_count differs from the balls file")
            if summary["cluster_count"] != checks.cluster_count(lab):
                found.append("summary cluster_count differs from the points file")
            problems += [f"{inp.name}: {p}" for p in found]
            labels.append(lab)
            reported.append(summary["rand_index"])
        return Outcome(labels=labels, problems=problems, orders=state.orders,
                       reported_rand_index=reported)


WORKLOADS = {
    "blobs-2d-100k": Blobs(n=100_000, dim=2),
    "blobs-8d-20k": Blobs(n=20_000, dim=8),
    "bundled-cli": BundledCli(),
}
