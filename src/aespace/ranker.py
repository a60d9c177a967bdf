"""Norm projection, collection ordering, and rank-agreement evaluation.

The embedding space only encodes relative distances; to put items on a 1-D
scale, ``embed`` takes the Euclidean norm of each embedding, its projection
score, once for every caller. Any common rotation of the space leaves both
distances and norms unchanged, so orderings survive re-orientation of the axes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import encoder
from .data_model import Dataset, row_blocks
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
    """Euclidean norm of an embedding (a float), or of each row of an embedding batch (an array)."""
    return np.linalg.norm(np.asarray(phi, dtype=np.float64), axis=-1)


def embed(params: encoder.EncoderParams, features) -> tuple[np.ndarray, np.ndarray]:
    """``encoder.forward`` for inference, and each embedding's projection score, all finite.

    The norms are taken one ``row_blocks`` block at a time; a 1-D input gives
    one float norm.

    Raises:
        InputError: The features are ragged or not the model's width.
        NonFiniteError: An embedding, or its projection score, is NaN or
            infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi = encoder.forward(params, features)
        norms = np.concatenate([projection_score(block) for block in row_blocks(np.atleast_2d(phi))])
    bad = ~np.isfinite(norms)
    if bad.any():
        raise NonFiniteError(int(bad.sum()), bad.size, int(np.argmax(bad)))
    return phi, norms[0] if phi.ndim == 1 else norms


def embed_blocks(score, params: encoder.EncoderParams,
                 blocks: Iterable[Dataset]) -> Iterator[tuple[Dataset, object]]:
    """``(block, score(params, block.features))`` for each ``Dataset`` block, in order.

    ``score`` is ``embed`` or a function that calls it. A block whose model
    output is not finite yields nothing and the blocks after it are still
    read.

    Raises:
        InputError: A block's features are not the model's width, raised at
            that block.
        NonFiniteError: After the last block, counting the non-finite inputs
            of every block and naming the first by its index in the whole
            stream, as one ``embed`` call over all the rows would.
    """
    total = count = first = 0
    for block in blocks:
        try:
            out = score(params, block.features)
        except NonFiniteError as exc:
            first = first if count else total + exc.first
            count += exc.count
        else:
            yield block, out
        total += len(block)
    if count:
        raise NonFiniteError(count, total, first)


def rank_collection(params: encoder.EncoderParams,
                    dataset: Dataset | Iterable[Dataset]) -> list[tuple[str, float]]:
    """Order a collection by descending projection score.

    Ties break by ascending id so the ordering is total and deterministic.

    Args:
        params: Trained encoder.
        dataset: The collection, as one ``Dataset`` or as its blocks in file
            order (``data_model.read_blocks``); only ids and norms are kept
            from each block.

    Returns:
        (id, projection score) pairs, best first.

    Raises:
        InputError: The dataset's feature width is not the model's.
        NonFiniteError: The model output is NaN or infinite for some record.
    """
    ids, norms = [], [np.empty(0)]
    for block, (_, block_norms) in embed_blocks(
            embed, params, [dataset] if isinstance(dataset, Dataset) else dataset):
        ids += block.ids
        norms.append(block_norms)
    norms = np.concatenate(norms)
    # a stable sort keeps equal norms in file order; each run of them is then put in id order
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    edges = np.concatenate(([0], np.flatnonzero(norms[1:] != norms[:-1]) + 1, [len(norms)]))
    for run in np.flatnonzero(np.diff(edges) > 1).tolist():
        start, stop = edges[run], edges[run + 1]
        order[start:stop] = sorted(order[start:stop].tolist(), key=ids.__getitem__)
    return list(zip(map(ids.__getitem__, order), norms.tolist()))


def _count_agreeing(s, ranks: list[int], delta: float) -> tuple[int, int]:
    """Pairs ``i < k`` with ``s[k] - s[i] > delta``, and those with ``ranks[i] < ranks[k]``.

    One sweep over non-decreasing ``s`` with ``delta >= 0``: for each k, an
    insertion pointer moves on while the float predicate itself,
    ``s[k] - s[inserted] > delta``, holds. Float subtraction is monotone, so
    k's qualifying items are a prefix of those before it that only grows,
    and the pointer never passes k (``s[k] - s[k] = 0``). A Fenwick tree
    (Fenwick 1994) over the rank values counts the inserted items below
    each rank. O(n log n) time, O(n) memory.
    """
    size = len(ranks)
    tree = [0] * (size + 1)
    pairs = agreeing = inserted = 0
    for top, rank in zip(s, ranks):
        while top - s[inserted] > delta:
            x = ranks[inserted] + 1
            while x <= size:
                tree[x] += 1
                x += x & -x
            inserted += 1
        pairs += inserted
        x = rank
        while x:
            agreeing += tree[x]
            x -= x & -x
    return pairs, agreeing


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
        raise InputError(f"need at least 2 records to evaluate, got {proj.size}")
    if not (np.all(np.isfinite(proj)) and np.all(np.isfinite(true))):
        raise InputError("projection and true scores must be finite")
    thresholds = check_thresholds(thresholds)

    order = np.argsort(true, kind="stable")
    s = true[order].tolist()
    ranks = np.unique(proj[order], return_inverse=True)[1].tolist()
    rows = []
    for thr in thresholds:
        pairs, agreeing = _count_agreeing(s, ranks, thr)
        rows.append(AgreementRow(delta=thr, pairs=pairs, agreement=agreeing / pairs if pairs else math.nan))
    return rows


def kendall_tau(order_a: list[str], order_b: list[str]) -> float:
    """Rank correlation between two orderings of the same id set.

    (concordant - discordant) / C(n, 2) over all pairs, by one zero-gap
    ``_count_agreeing`` sweep.

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
    pairs, concordant = _count_agreeing(range(n), [pos_b[rec_id] for rec_id in order_a], 0)
    return (2 * concordant - pairs) / pairs
