"""Frame-sequence scoring, scalar Kalman smoothing, and peak extraction.

Frames arrive as feature vectors in temporal order and are scored by the
embedding norm. ``load_frames`` yields them a ``data_model.read_blocks``
block at a time, so scoring a video holds each frame's id and score, not
its features or embedding. The raw score signal is smoothed by a causal
scalar Kalman filter with a constant-position state model (the simplest
model that smooths a scalar), then key frames are picked at the smoothed
signal's peaks. No backward smoothing pass: each output depends only on
frames seen so far, matching live processing. Peak picking compares each run
of equal values with its neighbours, finds both prominence bases with one
stack pass each way when a minimum prominence is set, and thins tallest first
over a mask of blocked frames: O(n + k log k + k * min_separation) for n
frames and k candidates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder, ranker
from .data_model import Dataset, read_blocks
from .errors import ConfigError, InputError


@dataclass(frozen=True)
class KalmanConfig:
    """Scalar filter noise levels and initialization.

    ``x0`` of None means the state starts at the first measurement;
    otherwise the state starts at the given value. ``p0`` is the initial
    variance in both policies.
    """

    q: float = 1e-4
    r: float = 1e-2
    p0: float = 1.0
    x0: float | None = None

    def __post_init__(self):
        if not 0 <= self.q < np.inf:
            raise ConfigError(f"process noise q must be finite and >= 0, got {self.q}")
        if not 0 < self.r < np.inf:
            raise ConfigError(f"measurement noise r must be finite and > 0, got {self.r}")
        if not 0 < self.p0 < np.inf:
            raise ConfigError(f"initial variance p0 must be finite and > 0, got {self.p0}")


@dataclass(frozen=True)
class PeakConfig:
    min_separation: int = 1
    min_prominence: float = 0.0

    def __post_init__(self):
        if self.min_separation < 1:
            raise ConfigError(f"min_separation must be >= 1, got {self.min_separation}")
        if not self.min_prominence >= 0:
            raise ConfigError(f"min_prominence must be >= 0, got {self.min_prominence}")


def score_sequence(params: encoder.EncoderParams, frames) -> list[float]:
    """Projection score of each frame, in input order.

    Args:
        params: Trained encoder.
        frames: Sequence of feature vectors (or an (n, d_in) array).

    Raises:
        InputError: The frames are ragged or not the model's width.
        NonFiniteError: The model output is NaN or infinite for some frame.
    """
    return ranker.embed(params, frames)[1].tolist()


def kalman_smooth(series, config: KalmanConfig = KalmanConfig()) -> list[float]:
    """Causal smoothing of a scalar series; output length equals input length.

    Each measurement z runs one predict step (variance p += q) and one update
    step (gain k = p / (p + r), estimate x += k * (z - x), p *= 1 - k).

    Raises:
        InputError: The series is empty.
    """
    series = [float(z) for z in series]
    if not series:
        raise InputError("kalman_smooth needs a non-empty series")
    q, r = config.q, config.r
    x = series[0] if config.x0 is None else config.x0
    p = config.p0
    out = []
    for z in series:
        p += q
        k = p / (p + r)
        x += k * (z - x)
        p *= 1.0 - k
        out.append(x)
    return out


def _left_bases(heights: list[float]) -> list[float]:
    """Per index, the minimum back to the nearest strictly higher value or the border."""
    stack: list[tuple[float, float]] = []  # (height, minimum of its stretch)
    bases = []
    for h in heights:
        low = h
        while stack and stack[-1][0] <= h:
            low = min(low, stack.pop()[1])
        stack.append((h, low))
        bases.append(low)
    return bases


def peak_prominences(series: np.ndarray, peaks: list[int]) -> list[float]:
    """Prominence of each peak index in ``series``.

    On each side, the base is the minimum over the stretch out to the
    nearest strictly higher value (or the signal border). Prominence is the
    peak height minus the higher of the two bases.
    """
    series = np.asarray(series, dtype=np.float64)
    left = np.array(_left_bases(series.tolist()))
    right = np.array(_left_bases(series[::-1].tolist()))[::-1]
    return (series[peaks] - np.maximum(left[peaks], right[peaks])).tolist()


def detect_peaks(series, config: PeakConfig = PeakConfig()) -> list[int]:
    """Indices of prominent local maxima, thinned to a minimum separation.

    A candidate is an interior strict local maximum; an interior plateau
    bounded by lower values on both sides yields its leftmost index.
    Endpoints are never peaks. Candidates below ``min_prominence`` are
    dropped, then the rest are kept greedily in descending height (ties by
    ascending index) subject to pairwise distance >= ``min_separation``.
    The surviving indices are returned ascending.

    Raises:
        InputError: The series is empty or holds a NaN or infinite value.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise InputError("detect_peaks needs a non-empty series")
    if not np.isfinite(series).all():
        raise InputError("detect_peaks needs a finite series")

    # runs of equal values; an interior run above both neighbours is a peak
    starts = np.flatnonzero(np.r_[True, series[1:] != series[:-1]])
    runs = series[starts]
    rise_fall = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])
    candidates = starts[1:-1][rise_fall]

    if config.min_prominence > 0:  # a prominence is never negative, so 0 keeps every candidate
        candidates = candidates[np.array(peak_prominences(series, candidates)) >= config.min_prominence]

    sep = config.min_separation
    blocked = np.zeros(series.size, dtype=bool)
    kept = []
    for c in candidates[np.argsort(-series[candidates], kind="stable")].tolist():
        if not blocked[c]:
            kept.append(c)
            blocked[max(c - sep + 1, 0) : c + sep] = True
    return sorted(kept)


def load_frames(path: str | Path) -> Iterator[Dataset]:
    """Frame records (metadata lines; views/faves optional) as ``data_model.read_blocks`` blocks.

    Each block holds the ids and features of up to ``ROW_BLOCK + 1`` frames,
    in file order. The file is read one block at a time as the blocks are
    consumed, and the first bad line aborts the read: a frame cannot be
    dropped without shifting the timeline.

    Raises:
        ParseError: A line is structurally invalid, its feature length
            disagrees with the first line's, or it has a non-finite feature.
        InputError: The file holds no frames.
    """
    for block in read_blocks(path, frames=True):
        if not len(block):  # only an empty file gives an empty block
            raise InputError(f"no frames in {path}")
        yield block
