"""Synthetic video frames and the scalar Kalman recurrence used to check them.

A frame sequence follows a latent score that takes a bounded random walk on
[0, 1] (steps reflect off both ends). Each frame's features are
``synth.mixing_matrix @ synth.basis(s) + noise``, the same map ``synth``
uses for records, so a model trained on ``synth`` data scores the frames.
Frame records carry only ``id`` and ``features``: the CLI reads them through
``video.load_frames``'s own path for records without views or faves.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from aespace import synth

D_IN = 16
NOISE = 0.05
WALK_STEP = 0.03
MIN_SEP = 25
KALMAN_Q = 1e-4  # the CLI defaults for --q, --r; p0 and x0 are not flags
KALMAN_R = 1e-2
KALMAN_P0 = 1.0


def latent_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    steps = rng.normal(0.0, WALK_STEP, n)
    s = np.empty(n)
    level = 0.5
    for t in range(n):
        level += steps[t]
        if level < 0.0:
            level = -level
        elif level > 1.0:
            level = 2.0 - level
        s[t] = level
    return s


def write_frames(path: Path, seed: int, n: int) -> None:
    mix = synth.mixing_matrix(synth.SynthConfig(n=n, d_in=D_IN, noise_sigma=NOISE, seed=seed))
    rng = np.random.default_rng([seed, 2])
    s = latent_walk(rng, n)
    noise = rng.normal(0.0, NOISE, (n, D_IN))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for t in range(n):
            features = mix @ synth.basis(float(s[t])) + noise[t]
            fh.write(json.dumps({"id": f"frame-{t:06d}", "features": features.tolist()}) + "\n")


def kalman_reference(raw) -> list[float]:
    """The scalar random-walk filter, state started at the first measurement."""
    x, p = float(raw[0]), KALMAN_P0
    out = []
    for z in raw:
        p += KALMAN_Q
        k = p / (p + KALMAN_R)
        x += k * (float(z) - x)
        p *= 1.0 - k
        out.append(x)
    return out


def smoothed_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    """A series shaped like the video workload's smoothed scores, without a model."""
    raw = latent_walk(rng, n) + rng.normal(0.0, NOISE, n)
    return np.array(kalman_reference(raw))
