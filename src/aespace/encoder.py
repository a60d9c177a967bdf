"""Feed-forward encoder mapping feature vectors to embeddings.

Hidden layers apply an affine map followed by a rectifier max(0, x); the
final layer is a plain affine projection. All arithmetic is float64.
Weights initialize from a zero-mean normal with std sqrt(2 / fan_in),
biases from zero. The rectifier derivative at exactly 0 is taken as 0.

Parameters and their gradients are each an ``EncoderParams``, whose one
flat buffer lets one array operation update every layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import are_numbers, open_atomic, row_blocks
from .errors import ConfigError, InputError, ModelFormatError, ModelVersionError

MODEL_FILE_VERSION = 1


@dataclass
class EncoderParams:
    """Layer sizes plus one float64 buffer: every weight, then every bias.

    ``weights[k]`` (fan_out, fan_in) and ``biases[k]`` are views into ``flat``,
    built once here; a buffer of the wrong size fails to reshape.
    """

    layer_dims: list[int]
    flat: np.ndarray

    def __post_init__(self):
        dims = self.layer_dims
        shapes = [*zip(dims[1:], dims[:-1]), *((d,) for d in dims[1:])]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        views = [part.reshape(shape) for part, shape in zip(np.split(self.flat, ends[:-1]), shapes)]
        self.weights, self.biases = views[:len(dims) - 1], views[len(dims) - 1:]

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]


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
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))
    params = EncoderParams(layer_dims, np.zeros(size))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return params


def _as_batch(x, d_in):
    """``x`` as an (n, d_in) float64 batch (no rows: (0, d_in)), and whether it was one vector.

    The one check that features fit the model: InputError if ragged or not d_in wide.
    """
    try:
        x = np.asarray(x, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"input is not a uniform stack of vectors: {exc}") from exc
    if x.shape[:1] == (0,):
        return np.empty((0, d_in)), False
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d_in:
        width = x.shape[1] if x.ndim == 2 else f"shape {x.shape}"
        raise InputError(f"model expects {d_in} features, input has {width}")
    return x, single


def _forward_pass(params, x):
    """Post-activations per layer (h[0] = x), each bias add and rectifier in place."""
    h = [x]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h[-1] @ np.ascontiguousarray(w.T)
        z += b
        if k != last:
            np.maximum(z, 0.0, out=z)
        h.append(z)
    return h


def _backward_pass(params, h, grad, grads_out: EncoderParams) -> np.ndarray:
    """Writes the parameter gradients of sum_i <grad[i], h[-1][i]> into ``grads_out``.

    ``h`` is what ``_forward_pass`` returned. Returns the gradient wrt the
    first layer's pre-activation, not the input. Each bias gradient is added
    up row by row, so a row whose delta is zero leaves it unchanged.
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
    """Embed one feature vector (1-D) or a stack of them (2-D, row-wise), a ``row_blocks`` block at a time."""
    xb, single = _as_batch(x, params.d_in)
    out = np.empty((len(xb), params.d_out))
    for block, dest in zip(row_blocks(xb), row_blocks(out)):
        dest[...] = _forward_pass(params, block)[-1]
    return out[0] if single else out


def backward(params: EncoderParams, x, grad_phi) -> tuple[EncoderParams, np.ndarray]:
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
        raise InputError(f"grad_phi shape {np.asarray(grad_phi).shape} incompatible with output dim {params.d_out}")

    grads = EncoderParams(params.layer_dims, np.empty_like(params.flat))
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


def _numbers(values, size: int) -> bool:
    """True iff ``values`` is a flat list of ``size`` JSON numbers (a bool is not one)."""
    return isinstance(values, list) and len(values) == size and are_numbers(values)


def load(path: str | Path) -> EncoderParams:
    """Read a model file written by ``save``.

    Raises:
        ModelVersionError: The file's version is not the JSON integer 1.
        ModelFormatError: The file is not valid JSON, its layer_dims are
            not two or more positive integers, it does not hold one weight
            and one bias entry per layer, each a flat list of exactly
            fan_in * fan_out and fan_out numbers, or a weight or bias is NaN,
            infinite or beyond float range.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise ModelFormatError(f"model file {path} lacks a version header")
    version = payload["version"]
    if type(version) is not int or version != MODEL_FILE_VERSION:  # true and 1.0 equal 1
        raise ModelVersionError(version, MODEL_FILE_VERSION)

    layer_dims = payload.get("layer_dims")
    if not (isinstance(layer_dims, list) and len(layer_dims) >= 2 and all(
            type(d) is int and d >= 1 for d in layer_dims)):
        raise ModelFormatError(
            f"model file {path}: layer_dims must be a list of two or more positive integers")
    weights, biases = payload.get("weights"), payload.get("biases")
    if not (isinstance(weights, list) and isinstance(biases, list)
            and len(weights) == len(biases) == len(layer_dims) - 1):
        raise ModelFormatError(f"model file {path}: layer count mismatch")
    for k, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        if not (_numbers(weights[k], fan_in * fan_out) and _numbers(biases[k], fan_out)):
            raise ModelFormatError(
                f"model file {path}: layer {k} needs flat lists of {fan_in * fan_out} weights"
                f" and {fan_out} biases")
    try:
        flat = np.array([v for values in (*weights, *biases) for v in values], dtype=np.float64)
    except OverflowError as exc:  # an int beyond float range
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"model file {path}: non-finite weight or bias")
    return EncoderParams(layer_dims, flat)
