"""Known defects of the clustering, each pinned by the result it should give.

Every test asserts the target and is a strict xfail whose reason gives
today's measured value, so the suite stays green while a defect stands and
fails loudly once a change mends it: that change turns the test into a plain
one.  ARI is the benchmark's (``perfbench/checks.py``, imported read-only),
since the Rand index scores a five-blob set split into 260 clusters at 0.998.
"""

import sys
from pathlib import Path

import pytest

from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate
from gbcluster.differentiation import cluster

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import adjusted_rand_index, contingency  # noqa: E402
from workloads import blob_points, shuffled  # noqa: E402


def _k_and_ari(ds):
    assignment, _ = cluster(ds)
    return assignment.cluster_count, adjusted_rand_index(contingency(ds.labels, assignment.labels))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="division keeps the root: m = 1, K = 1, ARI 0 at both shares")
@pytest.mark.parametrize("share", [0.8, 0.9])
def test_imbalanced_blobs_are_found(share):
    # the root split is rejected: the child holding the small far blobs has
    # a larger average distance than the root
    rest = (1.0 - share) / 4
    ds = generate(GeneratorSpec(family="blobs", n=10_000, seed=1, scales=0.5,
                                centers=BUNDLED_DATASETS["blobs10k"].centers,
                                proportions=(share, rest, rest, rest, rest)))
    k, ari = _k_and_ari(ds)
    assert k == 5 and ari >= 0.95


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="K = 260 (ARI 0.9865): the tails fragment into small clusters")
def test_blobs_at_100k_give_five_clusters():
    k, _ = _k_and_ari(shuffled(blob_points(100_000, 2), 1)[0])
    assert k == 5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ARI 0.153 (K = 1,984): 1-d blobs shatter")
def test_blobs_on_a_line_are_found():
    line = tuple((float(x),) for x in range(0, 25, 6))
    ds = generate(GeneratorSpec(family="blobs", n=100_000, seed=1, scales=0.5, centers=line))
    _, ari = _k_and_ari(ds)
    assert ari >= 0.95
