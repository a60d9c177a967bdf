"""Synthetic datasets with known ground-truth scores.

Each record draws a latent score s uniformly from [0, 1] and a view count V
log-uniformly from the configured range, then sets faves = round(V**s). That
construction inverts the log-ratio score exactly up to integer rounding, so
``compute_score(V, F)`` recovers s to within ln(2)/ln(view_lo).

Features are a seeded random mixture of a five-function basis of s plus
optional Gaussian noise. s is itself one of the basis functions and, for
d_in >= 5, the mixing matrix has full column rank, so a linear probe reads
s off almost exactly (least squares with an intercept on the n = 2000,
d_in = 16, noise 0.05, seed 7 benchmark gives R^2 = 0.994). The basis has
|basis(s)|^2 = 1 + s^2 + s^4 + s^6, so the feature norm rises with s; after
the random mixing, raw feature norms alone still order records largely by
score, before any training.

RNG: numpy's default PCG64 generator seeded with ``SynthConfig.seed``. The
draw order is fixed (mixing matrix first, then per row: latent score,
view count, noise), so identical configs yield bit-identical datasets.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data_model import Dataset, open_atomic
from .errors import ConfigError

BASIS_SIZE = 5


@dataclass(frozen=True)
class SynthConfig:
    n: int
    d_in: int
    noise_sigma: float = 0.0
    seed: int = 0
    view_range: tuple[int, int] = (100, 100_000)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.d_in < 2:
            raise ConfigError(f"d_in must be >= 2, got {self.d_in}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        lo, hi = self.view_range
        if lo < 100:
            raise ConfigError(f"view_range.lo must be >= 100, got {lo}")
        if not lo < hi:
            raise ConfigError(f"view_range.lo must be < view_range.hi, got ({lo}, {hi})")
        if hi > sys.float_info.max:
            raise ConfigError(
                f"view_range.hi must be at most {sys.float_info.max:g}, the float range")


def basis(s: float) -> np.ndarray:
    """Nonlinear basis [s, s^2, s^3, sin(2*pi*s), cos(2*pi*s)]."""
    return np.array(
        [s, s**2, s**3, math.sin(2 * math.pi * s), math.cos(2 * math.pi * s)]
    )


def mixing_matrix(config: SynthConfig) -> np.ndarray:
    """The (d_in, 5) mixing matrix used by ``generate`` for this config.

    Rows are standard-normal draws normalized to unit length, taken from a
    fresh generator before any record draws, so this replays exactly what
    ``generate`` uses internally.
    """
    rng = np.random.default_rng(config.seed)
    return _draw_mixing_matrix(rng, config.d_in)


def _draw_mixing_matrix(rng: np.random.Generator, d_in: int) -> np.ndarray:
    m = rng.normal(size=(d_in, BASIS_SIZE))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def generate(config: SynthConfig) -> Dataset:
    """Generate a dataset whose crowd counts encode a known latent score.

    For record k (ids "synth-000000", "synth-000001", ...):
      * latent score s ~ Uniform(0, 1)
      * views V: exp of a uniform draw on [ln lo, ln hi], rounded, clipped
        to the range
      * faves F = max(1, round(V**s))
      * features = M @ basis(s) + Gaussian noise with std ``noise_sigma``
    """
    rng = np.random.default_rng(config.seed)
    mix = _draw_mixing_matrix(rng, config.d_in)
    lo, hi = config.view_range

    view_counts, fave_counts = [], []
    features = np.empty((config.n, config.d_in))
    latent = np.empty(config.n)
    for k in range(config.n):
        s = float(rng.uniform(0.0, 1.0))
        views = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        views = min(max(views, lo), hi)
        # noise is drawn even at sigma 0 so the per-row draw sequence,
        # and hence (s, V, F), is identical across noise levels for a seed
        noise = rng.normal(0.0, 1.0, size=config.d_in)
        latent[k] = s
        view_counts.append(views)
        fave_counts.append(max(1, int(round(views**s))))
        features[k] = mix @ basis(s) + config.noise_sigma * noise
    ids = [f"synth-{k:06d}" for k in range(config.n)]
    return Dataset(ids, view_counts, fave_counts, features, latent)


def write_sidecar(config: SynthConfig, path: str | Path) -> None:
    """Record the generation config and mixing matrix next to a dataset."""
    payload = {**asdict(config), "rng": "numpy default_rng (PCG64)",
               "mixing_matrix": mixing_matrix(config).tolist()}
    with open_atomic(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
