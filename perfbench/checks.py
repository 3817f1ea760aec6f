"""Scores and output invariants computed by the benchmark itself.

Nothing here calls into gbcluster: the scores come from a label contingency
table built here, so they can be cross-checked against the package's own
``rand_index``, and the invariants read only labels, ball members and radii.
"""

from __future__ import annotations

import hashlib

import numpy as np

NOISE = -1


def contingency(truth, pred) -> np.ndarray:
    """Counts of points per (truth label, predicted label); -1 is a label like any other."""
    t = np.asarray(truth).ravel()
    p = np.asarray(pred).ravel()
    if t.size != p.size:
        raise ValueError(f"label vectors differ in length: {t.size} vs {p.size}")
    _, ti = np.unique(t, return_inverse=True)
    pv, pi = np.unique(p, return_inverse=True)
    flat = np.bincount(ti * pv.size + pi, minlength=(int(ti.max()) + 1) * pv.size)
    return flat.reshape(-1, pv.size)


def _pairs(counts: np.ndarray) -> int:
    c = counts.astype(np.int64).ravel()
    return int((c * (c - 1) // 2).sum())


def _pair_counts(table: np.ndarray) -> tuple[int, int, int, int]:
    n = int(table.sum())
    return _pairs(table), _pairs(table.sum(axis=1)), _pairs(table.sum(axis=0)), n * (n - 1) // 2


def rand_index(table: np.ndarray) -> float:
    """Share of point pairs on which both labellings agree (together or apart)."""
    both, same_truth, same_pred, total = _pair_counts(table)
    return (total + 2 * both - same_truth - same_pred) / total


def adjusted_rand_index(table: np.ndarray) -> float:
    """Hubert-Arabie adjusted Rand index; 1.0 when the labellings are the same partition."""
    both, same_truth, same_pred, total = _pair_counts(table)
    expected = same_truth * same_pred / total
    best = (same_truth + same_pred) / 2
    if best == expected:  # both partitions trivial (one block, or all singletons)
        return 1.0
    return (both - expected) / (best - expected)


def cluster_count(labels) -> int:
    lab = np.asarray(labels)
    return int(np.unique(lab[lab != NOISE]).size)


def label_digest(parts) -> str:
    """SHA-256 over one or more label vectors, each as little-endian int64."""
    h = hashlib.sha256()
    for labels in parts:
        lab = np.ascontiguousarray(labels, dtype="<i8")
        h.update(len(lab).to_bytes(8, "little"))
        h.update(lab.tobytes())
    return h.hexdigest()


def unshuffle(labels, order) -> np.ndarray:
    """Labels of points that were handed over in ``order`` (input i is point
    order[i]), put back in the points' own order."""
    lab = np.asarray(labels)
    if lab.shape != np.shape(order):  # label_problems reports the wrong length
        return lab
    out = np.empty_like(lab)
    out[order] = lab
    return out


def label_problems(labels, n: int) -> list[str]:
    """Labels must have one entry per point, with cluster ids contiguous from 0."""
    lab = np.asarray(labels)
    if lab.shape != (n,):
        return [f"labels have shape {lab.shape}, expected ({n},)"]
    if (lab < NOISE).any():
        return ["labels below -1"]
    ids = np.unique(lab[lab != NOISE])
    if ids.size and (ids[0] != 0 or ids[-1] != ids.size - 1):
        return [f"cluster ids are not contiguous from 0 ({ids.size} ids, max {ids[-1]})"]
    return []


def ball_problems(members: list[np.ndarray], radii: np.ndarray, n: int,
                  round_cap_hit: bool) -> list[str]:
    """Ball members must partition 0..n-1 exactly once, and no ball may be
    oversized unless the refinement round cap was hit."""
    problems = []
    if not members:
        return ["no balls"]
    flat = np.concatenate(members).astype(np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        return ["ball member index out of range"]
    counts = np.bincount(flat, minlength=n)
    if (counts != 1).any():
        problems.append(f"ball members do not partition the points: "
                        f"{int((counts == 0).sum())} uncovered, {int((counts > 1).sum())} repeated")
    return problems + oversized_problems(radii, round_cap_hit)


def oversized_problems(radii: np.ndarray, round_cap_hit: bool) -> list[str]:
    """No ball may exceed 2 * max(mean radius, median radius) unless the
    refinement round cap was hit."""
    # The relative slack absorbs the last-bit difference between summing the
    # radii in this order and in the division loop's order.
    over = radii > 2.0 * max(float(radii.mean()), float(np.median(radii))) * (1 + 1e-12)
    if over.any() and not round_cap_hit:
        return [f"{int(over.sum())} oversized balls without a round-cap hit"]
    return []


def ball_view(ballset) -> tuple[list[np.ndarray], np.ndarray]:
    """Member index arrays and radii of a BallSet.

    Reads a list of ball objects (``balls``) or the array layout (``order``
    with ``sizes`` and ``radii``), so the check outlives a change of layout.
    """
    balls = getattr(ballset, "balls", None)
    if balls is not None:
        return [b.members for b in balls], np.array([b.radius for b in balls], dtype=np.float64)
    sizes = np.asarray(ballset.sizes)
    members = np.split(np.asarray(ballset.order), np.cumsum(sizes)[:-1])
    return members, np.asarray(ballset.radii, dtype=np.float64)
