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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class LossConfig:
    margin_m: float = 0.2
    margin_md: float = 0.1
    directional_enabled: bool = True
    literal_sign_form: bool = False


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


def _check_same_shape(*vectors):
    dims = {np.asarray(v).shape for v in vectors}
    if len(dims) != 1:
        raise ShapeError(f"embedding shapes differ: {sorted(dims)}")


def batch_loss(ea, ep, en, s_a, s_n, config: LossConfig):
    """Per-triplet losses and exact gradients for a batch of triplets.

    Row i of the (B, d) embedding arrays ``ea``, ``ep`` and ``en`` is one
    triplet; ``s_a`` and ``s_n`` hold the anchor and negative scores.

    Returns:
        (l_e, l_d, grad_a, grad_p, grad_n): the two loss terms per row
        (length B) and the gradient rows wrt each embedding array.

    Raises:
        ShapeError: The three embedding arrays differ in shape.
    """
    _check_same_shape(ea, ep, en)
    dap = ea - ep
    dan = ea - en
    e_arg = config.margin_m + np.sum(dap * dap, axis=1) - np.sum(dan * dan, axis=1)
    l_e = np.maximum(e_arg, 0.0)
    act_e = (e_arg > 0.0)[:, None]
    grad_a = np.where(act_e, 2.0 * (en - ep), 0.0)
    grad_p = np.where(act_e, -2.0 * dap, 0.0)
    grad_n = np.where(act_e, 2.0 * dan, 0.0)

    l_d = np.zeros_like(l_e)
    if config.directional_enabled:
        sign = np.sign(s_n - s_a)
        norm_a = np.linalg.norm(ea, axis=1)
        norm_n = np.linalg.norm(en, axis=1)
        if config.literal_sign_form:
            arg = norm_a - norm_n + config.margin_md
            l_d = np.where(sign != 0.0, sign * np.maximum(arg, 0.0), 0.0)
        else:
            arg = config.margin_md + sign * (norm_a - norm_n)
            l_d = np.where(sign != 0.0, np.maximum(arg, 0.0), 0.0)
        # d|x|/dx = x/|x|, zero vector at the origin
        unit_a = np.divide(ea, norm_a[:, None], out=np.zeros_like(ea), where=norm_a[:, None] > 0)
        unit_n = np.divide(en, norm_n[:, None], out=np.zeros_like(en), where=norm_n[:, None] > 0)
        coeff = (sign * ((sign != 0.0) & (arg > 0.0)))[:, None]
        grad_a = grad_a + coeff * unit_a
        grad_n = grad_n - coeff * unit_n
    return l_e, l_d, grad_a, grad_p, grad_n


def directional_triplet_loss(
    phi_a, phi_p, phi_n, score_a: float, score_n: float, config: LossConfig
) -> TripletLossResult:
    """Combined loss of one triplet and its exact gradients wrt each embedding."""
    rows = [np.asarray(v, dtype=np.float64).reshape(1, -1) for v in (phi_a, phi_p, phi_n)]
    l_e, l_d, grad_a, grad_p, grad_n = batch_loss(
        *rows, np.array([score_a]), np.array([score_n]), config
    )
    return TripletLossResult(
        l_e=float(l_e[0]),
        l_d=float(l_d[0]),
        total=float(l_e[0]) + float(l_d[0]),
        grad_a=grad_a[0],
        grad_p=grad_p[0],
        grad_n=grad_n[0],
    )
