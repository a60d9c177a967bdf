"""Norm projection, collection ordering, and rank-agreement evaluation.

The embedding space only encodes relative distances; to put items on a 1-D
scale we take the Euclidean norm of each embedding as its projection score.
Any common rotation of the space leaves both distances and norms unchanged,
so orderings survive re-orientation of the embedding axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder
from .data_model import Dataset
from .errors import InputError, NonFiniteError


@dataclass(frozen=True)
class AgreementRow:
    """Pairwise agreement restricted to true-score gaps above a threshold.

    ``agreement`` is NaN when no pair qualifies (``pairs == 0``).
    """

    delta: float
    pairs: int
    agreement: float


def projection_score(phi):
    """Euclidean norm of an embedding, or of each row of an embedding batch.

    This is the 1-D scale value: a float for one embedding (1-D input), an
    array of one value per row for a batch (2-D input).
    """
    return np.linalg.norm(np.asarray(phi, dtype=np.float64), axis=-1)


def embed(params: encoder.EncoderParams, features) -> np.ndarray:
    """``encoder.forward`` for inference: embeddings whose norms are all finite.

    A model with huge (but finite) weights can overflow on ordinary input;
    its output would rank and score as NaN or infinity.

    Raises:
        InputError: The features are ragged or not the model's width.
        NonFiniteError: An embedding, or its projection score, is NaN or
            infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi = encoder.forward(params, features)
        bad = ~np.isfinite(projection_score(phi))
    if bad.any():
        raise NonFiniteError(
            f"model output is not finite for {int(bad.sum())} of {bad.size} input(s) "
            f"(first: input {int(np.argmax(bad))})"
        )
    return phi


def rank_collection(params: encoder.EncoderParams, dataset: Dataset) -> list[tuple[str, float]]:
    """Order a collection by descending projection score.

    Ties break by ascending id so the ordering is total and deterministic.

    Returns:
        (id, projection score) pairs, best first.

    Raises:
        InputError: The dataset's feature width is not the model's.
        NonFiniteError: The model output is NaN or infinite for some record.
    """
    norms = projection_score(embed(params, dataset.features)).tolist()
    order = sorted(range(len(norms)), key=lambda i: (-norms[i], dataset.ids[i]))
    return [(dataset.ids[i], norms[i]) for i in order]


def _gap_frontier(s: np.ndarray, delta: float) -> np.ndarray:
    """For ascending ``s``: ``lo[k]`` = #{i : s[k] - s[i] > delta}.

    The set is a prefix of ``s``, and it only grows with k. A binary search
    on ``s - delta`` can miss its end in the last bit, so each end is then
    moved, a run of equal values at a time, until the float predicate
    ``s[k] - s[i] > delta`` itself holds before it and fails after it.
    """
    n = s.size
    lo = np.searchsorted(s, s - delta, side="left")
    while True:
        before, at = s[np.maximum(lo - 1, 0)], s[np.minimum(lo, n - 1)]
        down = (lo > 0) & ~((s - before) > delta)
        up = (lo < n) & ((s - at) > delta)
        if not (down.any() or up.any()):
            return lo
        lo = np.where(down, np.searchsorted(s, before, side="left"), lo)
        lo = np.where(up, np.searchsorted(s, at, side="right"), lo)


def _count_lower_before(ranks: list[int], lo) -> int:
    """Sum over k of #{i < lo[k] : ranks[i] < ranks[k]}, for non-decreasing lo.

    A Fenwick tree (Fenwick 1994) over the rank values counts the items
    inserted so far below each rank; item i is inserted once the frontier
    ``lo`` passes it. O(n log n) time, O(n) memory.
    """
    size = len(ranks)
    tree = [0] * (size + 1)
    total = 0
    inserted = 0
    for rank, stop in zip(ranks, lo):
        while inserted < stop:
            x = ranks[inserted] + 1
            while x <= size:
                tree[x] += 1
                x += x & -x
            inserted += 1
        x = rank
        while x:
            total += tree[x]
            x -= x & -x
    return total


def check_thresholds(thresholds) -> list[float]:
    """The score-gap thresholds as floats, once each lies in (0, 1) and they increase.

    Raises:
        InputError: A threshold is not strictly inside (0, 1), or the
            thresholds are not strictly increasing.
    """
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise InputError(f"thresholds must lie strictly in (0, 1), got {t}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise InputError(f"thresholds must be strictly increasing, got {thresholds}")
    return thresholds


def pairwise_agreement(projection_scores, true_scores, thresholds) -> list[AgreementRow]:
    """Fraction of well-separated pairs ordered the same way by both scores.

    For each threshold, pairs whose true-score gap exceeds it are checked
    for agreement between the projection-score ordering and the true-score
    ordering. A projection-score tie counts as disagreement.

    O(n log n) time per threshold and O(n) memory: after one sort by true
    score, the pairs beyond a threshold are, for each item, a prefix of the
    items below it, and the agreeing ones are those with a strictly lower
    projection score.

    Raises:
        InputError: Score lists are not aligned, have fewer than 2 items or
            hold a NaN or infinite value, or ``check_thresholds`` rejects
            the thresholds.
    """
    proj = np.asarray(projection_scores, dtype=np.float64)
    true = np.asarray(true_scores, dtype=np.float64)
    if proj.shape != true.shape or proj.ndim != 1:
        raise InputError(f"misaligned score lists: {proj.shape} vs {true.shape}")
    if proj.size < 2:
        raise InputError("need at least 2 items for pairwise agreement")
    if not (np.all(np.isfinite(proj)) and np.all(np.isfinite(true))):
        raise InputError("projection and true scores must be finite")
    thresholds = check_thresholds(thresholds)

    order = np.argsort(true, kind="stable")
    s = true[order]
    ranks = np.unique(proj[order], return_inverse=True)[1].tolist()
    rows = []
    for thr in thresholds:
        lo = _gap_frontier(s, thr)
        pairs = int(lo.sum())
        fraction = _count_lower_before(ranks, lo.tolist()) / pairs if pairs else math.nan
        rows.append(AgreementRow(delta=thr, pairs=pairs, agreement=fraction))
    return rows


def kendall_tau(order_a: list[str], order_b: list[str]) -> float:
    """Rank correlation between two orderings of the same id set.

    Computed over all pairs: (concordant - discordant) / C(n, 2), in
    O(n log n) time and O(n) memory.

    Raises:
        InputError: The orderings are not permutations of the same ids.
    """
    if len(order_a) != len(order_b) or set(order_a) != set(order_b):
        raise InputError("orderings must be permutations of the same id set")
    if len(order_a) != len(set(order_a)):
        raise InputError("orderings must not repeat ids")
    n = len(order_a)
    if n < 2:
        raise InputError("need at least 2 items for kendall_tau")

    pos_b = {rec_id: i for i, rec_id in enumerate(order_b)}
    concordant = _count_lower_before([pos_b[rec_id] for rec_id in order_a], range(n))
    s = 2 * concordant - n * (n - 1) // 2
    return s / (n * (n - 1) / 2)
