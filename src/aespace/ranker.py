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
from .errors import ConfigError, InputError


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


def rank_collection(params: encoder.EncoderParams, dataset: Dataset) -> list[tuple[str, float]]:
    """Order a collection by descending projection score.

    Ties break by ascending id so the ordering is total and deterministic.

    Returns:
        (id, projection score) pairs, best first.

    Raises:
        ConfigError: Dataset feature length does not match the encoder input.
    """
    if len(dataset) == 0:
        return []
    if dataset.d_in != params.d_in:
        raise ConfigError(f"dataset d_in={dataset.d_in} but encoder expects {params.d_in}")
    norms = projection_score(encoder.forward(params, dataset.feature_matrix()))
    order = sorted(range(len(dataset)), key=lambda i: (-norms[i], dataset.records[i].id))
    return [(dataset.records[i].id, float(norms[i])) for i in order]


def pairwise_agreement(projection_scores, true_scores, thresholds) -> list[AgreementRow]:
    """Fraction of well-separated pairs ordered the same way by both scores.

    For each threshold, pairs whose true-score gap exceeds it are checked
    for agreement between the projection-score ordering and the true-score
    ordering. A projection-score tie counts as disagreement.

    Raises:
        InputError: Score lists are not aligned or have fewer than 2 items.
    """
    proj = np.asarray(projection_scores, dtype=np.float64)
    true = np.asarray(true_scores, dtype=np.float64)
    if proj.shape != true.shape or proj.ndim != 1:
        raise InputError(f"misaligned score lists: {proj.shape} vs {true.shape}")
    if proj.size < 2:
        raise InputError("need at least 2 items for pairwise agreement")
    thresholds = [float(t) for t in thresholds]
    if any(not 0.0 < t < 1.0 for t in thresholds):
        raise InputError(f"thresholds must lie in (0, 1), got {thresholds}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise InputError(f"thresholds must be strictly increasing, got {thresholds}")

    iu, ju = np.triu_indices(proj.size, k=1)
    dt = true[iu] - true[ju]
    dp = proj[iu] - proj[ju]
    agree = ((dt > 0) & (dp > 0)) | ((dt < 0) & (dp < 0))

    rows = []
    for thr in thresholds:
        sel = np.abs(dt) > thr
        pairs = int(np.count_nonzero(sel))
        fraction = float(np.mean(agree[sel])) if pairs else math.nan
        rows.append(AgreementRow(delta=float(thr), pairs=pairs, agreement=fraction))
    return rows


def kendall_tau(order_a: list[str], order_b: list[str]) -> float:
    """Rank correlation between two orderings of the same id set.

    Computed over all pairs: (concordant - discordant) / C(n, 2).

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
    ranks = np.array([pos_b[rec_id] for rec_id in order_a])
    diff_sign = np.sign(ranks[None, :] - ranks[:, None])
    iu, ju = np.triu_indices(n, k=1)
    s = int(diff_sign[iu, ju].sum())
    return s / (n * (n - 1) / 2)
