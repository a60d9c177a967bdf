"""Feed-forward encoder mapping feature vectors to embeddings.

Hidden layers apply an affine map followed by a rectifier max(0, x); the
final layer is a plain affine projection. All arithmetic is float64.
Weights initialize from a zero-mean normal with std sqrt(2 / fan_in),
biases from zero. The rectifier derivative at exactly 0 is taken as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import open_atomic
from .errors import ConfigError, ModelFormatError, ModelVersionError, ShapeError

MODEL_FILE_VERSION = 1


@dataclass
class EncoderParams:
    """Layer sizes plus per-layer weight matrices (fan_out, fan_in) and biases."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]


@dataclass
class EncoderGrads:
    """Parameter gradients with the same shapes as EncoderParams."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init(layer_dims: list[int], seed: int) -> EncoderParams:
    """He-initialized parameters for the given layer sizes.

    Raises:
        ConfigError: Fewer than two dims or a non-positive dim.
    """
    if len(layer_dims) < 2:
        raise ConfigError(f"need at least [d_in, d_out], got {layer_dims}")
    if any(int(d) < 1 for d in layer_dims):
        raise ConfigError(f"layer dims must be positive, got {layer_dims}")
    layer_dims = [int(d) for d in layer_dims]
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(layer_dims=layer_dims, weights=weights, biases=biases)


def _as_batch(x, d_in):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d_in:
        raise ShapeError(f"input shape {x.shape} incompatible with d_in={d_in}")
    return x, single

def _forward_pass(params, x):
    """Post-activations per layer (h[0] = x), each bias add and rectifier in place."""
    h = [x]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h[-1] @ w.T
        z += b
        if k != last:
            np.maximum(z, 0.0, out=z)
        h.append(z)
    return h


def _backward_pass(params, h, grad, grads_out: EncoderGrads) -> np.ndarray:
    """Writes the parameter gradients of sum_i <grad[i], h[-1][i]> into ``grads_out``.

    ``h`` is what ``_forward_pass`` returned. A hidden unit passes gradient
    iff its post-activation is positive, which is the same mask as z > 0.
    Returns the gradient wrt the first layer's pre-activation; the input
    gradient, one product with the first weight matrix away, is not formed.
    """
    delta = grad
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, h[k], out=grads_out.weights[k])
        np.add.reduce(delta, axis=0, out=grads_out.biases[k])
        if k > 0:
            delta = delta @ params.weights[k]
            delta *= h[k] > 0.0
    return delta


def forward(params: EncoderParams, x) -> np.ndarray:
    """Embed one feature vector (1-D) or a stack of them (2-D, row-wise)."""
    xb, single = _as_batch(x, params.d_in)
    out = _forward_pass(params, xb)[-1]
    return out[0] if single else out


def backward(params: EncoderParams, x, grad_phi) -> tuple[EncoderGrads, np.ndarray]:
    """Gradients of <grad_phi, forward(x)> wrt every weight, bias, and x.

    For 2-D inputs the scalar differentiated is the sum over rows of
    <grad_phi[i], forward(x[i])>: parameter gradients accumulate across the
    batch while the returned input gradient stays per-row.
    """
    xb, single = _as_batch(x, params.d_in)
    gb = np.asarray(grad_phi, dtype=np.float64)
    if single:
        gb = gb[None, :]
    if gb.shape != (xb.shape[0], params.d_out):
        raise ShapeError(f"grad_phi shape {np.asarray(grad_phi).shape} incompatible with output dim {params.d_out}")

    grads = EncoderGrads(
        weights=[np.empty_like(w) for w in params.weights],
        biases=[np.empty_like(b) for b in params.biases],
    )
    delta = _backward_pass(params, _forward_pass(params, xb), gb, grads)
    grad_x = delta @ params.weights[0]
    return grads, grad_x[0] if single else grad_x


def save(params: EncoderParams, path: str | Path) -> None:
    """Write parameters as a versioned JSON model file (lossless floats)."""
    payload = {
        "version": MODEL_FILE_VERSION,
        "layer_dims": params.layer_dims,
        "weights": [[float(v) for v in w.ravel()] for w in params.weights],
        "biases": [[float(v) for v in b] for b in params.biases],
    }
    with open_atomic(path) as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load(path: str | Path) -> EncoderParams:
    """Read a model file written by ``save``.

    Raises:
        ModelVersionError: The file declares an unsupported version.
        ModelFormatError: The file is not valid JSON, its layer_dims are
            not two or more positive integers, its shapes do not chain, or a
            weight or bias is NaN or infinite.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise ModelFormatError(f"model file {path} lacks a version header")
    if payload["version"] != MODEL_FILE_VERSION:
        raise ModelVersionError(payload["version"], MODEL_FILE_VERSION)

    layer_dims = payload.get("layer_dims")
    if not (isinstance(layer_dims, list) and len(layer_dims) >= 2 and all(
            type(d) is int and d >= 1 for d in layer_dims)):
        raise ModelFormatError(
            f"model file {path}: layer_dims must be a list of two or more positive integers")
    try:
        weights = [
            np.array(flat, dtype=np.float64).reshape(fan_out, fan_in)
            for flat, fan_in, fan_out in zip(
                payload["weights"], layer_dims[:-1], layer_dims[1:]
            )
        ]
        biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file {path}: {exc}") from exc

    if len(weights) != len(layer_dims) - 1 or len(biases) != len(weights):
        raise ModelFormatError(f"model file {path}: layer count mismatch")
    for b, w in zip(biases, weights):
        if b.shape != (w.shape[0],):
            raise ModelFormatError(f"model file {path}: bias shape mismatch")
    if not all(np.all(np.isfinite(a)) for a in (*weights, *biases)):
        raise ModelFormatError(f"model file {path}: non-finite weight or bias")
    return EncoderParams(layer_dims=layer_dims, weights=weights, biases=biases)
