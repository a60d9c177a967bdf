"""Triplet loss, directional norm term, and their exact gradients.

Per triplet (anchor a, positive p, negative n) of embeddings:

  triplet term      l_e = [m + |a - p|^2 - |a - n|^2]+      (squared distances)
  directional term  l_d, default hinge form:
        score(n) > score(a):  [|a| - |n| + md]+
        score(n) < score(a):  [|n| - |a| + md]+
        tie:                   0
  combined          total = l_e + l_d

The hinge form is bounded below and pushes the norm of the higher-scored
embedding above the lower-scored one by md regardless of which role it
plays. The literal form sign(score(n) - score(a)) * [|a| - |n| + md]+ is
kept behind a flag; with a negative sign it is unbounded below (minimizing
it rewards growing |a| without limit), so it is for comparison runs only.

Subgradient conventions: a hinge at its kink contributes 0, and the
gradient of |x| at x = 0 is the zero vector.

A satisfied triplet contributes exactly nothing, so ``batch_loss`` returns
the gradient only of the rows a hinge moves, with their indices (``rows``);
a training step backpropagates those rows alone. Each returned gradient has
the bits it would have in the full (3B, d) layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


_TRIPLET_GRAD_SCALE = np.array([2.0, -2.0, 2.0])[:, None, None]
# the directional term adds sign * a/|a| to the anchor and subtracts sign * n/|n| from the negative
_UNIT_SIGNS = np.array([1.0, -1.0])[:, None, None]


@dataclass(frozen=True)
class LossConfig:
    margin_m: float = 0.2
    margin_md: float = 0.1
    directional_enabled: bool = True
    literal_sign_form: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.margin_m) and math.isfinite(self.margin_md)):
            raise ConfigError(
                f"margins must be finite, got margin_m={self.margin_m}, margin_md={self.margin_md}"
            )


@dataclass
class TripletLossResult:
    """Loss values and the exact gradients wrt the three embeddings.

    ``grad_p`` never receives a directional contribution; the directional
    term depends only on the anchor and negative embeddings.
    """

    l_e: float
    l_d: float
    total: float
    grad_a: np.ndarray
    grad_p: np.ndarray
    grad_n: np.ndarray


def batch_loss(emb, s_a, s_n, config: LossConfig):
    """Per-triplet losses, and the gradient of every row it moves, for a batch of B triplets.

    ``emb`` stacks the embeddings as one (3B, d) array: rows [0, B) are the
    anchors, [B, 2B) the positives and [2B, 3B) the negatives, so row i of
    each block is one triplet. ``s_a`` and ``s_n`` hold the B anchor and
    negative scores.

    A hinge that is not active contributes exactly nothing, so most rows of
    a batch have a zero gradient. ``rows`` names, in ascending order, the
    rows whose gradient is formed: the anchor and negative of every triplet
    with either hinge active, and the positive of every triplet with the
    triplet hinge active. Every other row's gradient is exactly zero. A
    unit vector is formed only for a triplet whose directional hinge is
    active.

    Returns:
        (l_e, l_d, rows, grad): the two loss terms per triplet (length B),
        the indices into ``emb`` of the live rows, and their gradients, one
        row of ``grad`` per entry of ``rows``.

    Raises:
        InputError: ``emb`` is not 2-D with three rows per score.
    """
    b = len(s_a)
    if emb.ndim != 2 or emb.shape[0] != 3 * b:
        raise InputError(f"stacked embeddings {emb.shape} do not hold 3 x {b} rows")
    emb3 = emb.reshape(3, b, emb.shape[1])
    ea, ep, en = emb3
    g3 = np.empty_like(emb3)
    np.subtract(en, ep, out=g3[0])
    np.subtract(ea, ep, out=g3[1])
    np.subtract(ea, en, out=g3[2])
    sq_ap, sq_an = np.add.reduce(g3[1:] * g3[1:], 2)
    e_arg = config.margin_m + sq_ap - sq_an
    l_e = np.maximum(e_arg, 0.0)
    live_e = e_arg > 0.0
    # rows 2(n - p), -2(a - p) and 2(a - n) while the hinge is active, else zero
    g3 *= _TRIPLET_GRAD_SCALE
    g3[:, ~live_e] = 0.0

    if config.directional_enabled:
        sign = np.sign(s_n - s_a)
        ends = emb3[::2]
        norm_a, norm_n = norms = np.sqrt(np.add.reduce(ends * ends, 2))
        if config.literal_sign_form:
            arg = norm_a - norm_n + config.margin_md
            l_d = sign * np.maximum(arg, 0.0)
        else:
            arg = config.margin_md + sign * (norm_a - norm_n)
            l_d = np.maximum(arg, 0.0)
        tie = sign == 0.0
        l_d[tie] = 0.0
        live_d = ~tie & (arg > 0.0)
        # d|x|/dx = x/|x|, zero vector at the origin, formed only where the hinge is active
        at = np.flatnonzero(live_d)
        ends, norms = ends[:, at], norms[:, at, None]
        units = np.divide(ends, norms, out=np.zeros_like(ends), where=norms > 0)
        units *= sign[at, None] * _UNIT_SIGNS
        g3[::2, at] += units
        live_ends = live_e | live_d
    else:
        l_d = np.zeros_like(l_e)
        live_ends = live_e
    rows = np.flatnonzero(np.concatenate((live_ends, live_e, live_ends)))
    return l_e, l_d, rows, g3.reshape(emb.shape).take(rows, 0)


def directional_triplet_loss(
    phi_a, phi_p, phi_n, score_a: float, score_n: float, config: LossConfig
) -> TripletLossResult:
    """Combined loss of one triplet and its exact gradients wrt each embedding."""
    dims = {np.asarray(v).shape for v in (phi_a, phi_p, phi_n)}
    if len(dims) != 1:
        raise InputError(f"embedding shapes differ: {sorted(dims)}")
    emb = np.array([phi_a, phi_p, phi_n], dtype=np.float64).reshape(3, -1)
    l_e, l_d, rows, live = batch_loss(emb, np.array([score_a]), np.array([score_n]), config)
    grad = np.zeros_like(emb)
    grad[rows] = live
    return TripletLossResult(
        l_e=float(l_e[0]),
        l_d=float(l_d[0]),
        total=float(l_e[0]) + float(l_d[0]),
        grad_a=grad[0],
        grad_p=grad[1],
        grad_n=grad[2],
    )
