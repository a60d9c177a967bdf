"""Rejection sampling of training triplets under a score-ratio window.

A proposal is an ordered distinct index triple (a, p, n) drawn uniformly.
With pair reference R = (score(a) + score(p)) / 2 (or score(a) when
``pair_ref="anchor"``), the proposal is accepted iff

    alpha < |score(a) - score(p)| / |R - score(n)| < beta     (strictly).

A zero denominator counts as a rejection, not an error. ``collect_indices``
returns accepted triples as one (3, k) int64 block with rows a, p and n;
``window``, the one place the formula is written, gives any block's R (and
so its pair_above flags, R > score(n)) and ratios. Acceptance statistics
are tracked per proposal so the size of the accepted-triple space can be
estimated from the acceptance rate.

A sampler owns one RNG stream (numpy PCG64 seeded from its config) and is
not safe to share across concurrent callers; run one instance per thread
with distinct seeds instead. Proposals are drawn in buffered blocks, but
the proposal sequence consumed is a pure function of the seed, independent
of how many triplets each call requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, SamplerStarvationError

PAIR_REFS = ("mean", "anchor")


@dataclass(frozen=True)
class SamplerConfig:
    alpha: float = 0.25
    beta: float = 0.75
    seed: int = 0
    pair_ref: str = "mean"
    max_proposals: int = 1_000_000

    def __post_init__(self):
        if not 0.0 <= self.alpha < self.beta:
            raise ConfigError(f"need 0 <= alpha < beta, got alpha={self.alpha}, beta={self.beta}")
        if self.pair_ref not in PAIR_REFS:
            raise ConfigError(f"pair_ref must be one of {PAIR_REFS}, got {self.pair_ref!r}")
        if self.max_proposals < 1:
            raise ConfigError(f"max_proposals must be >= 1, got {self.max_proposals}")


@dataclass
class SamplerStats:
    proposed: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


_CHUNK = 2048


def window(scores: np.ndarray, idx: np.ndarray, pair_ref: str):
    """(R, ratio) of each column of a (3, m) index block, rows a, p and n.

    The ratio is 0 where |R - score(n)| is 0, which no alpha >= 0 accepts.
    """
    s_a, s_p, s_n = scores[idx]
    ref = 0.5 * (s_a + s_p) if pair_ref == "mean" else s_a
    den = np.abs(ref - s_n)
    ratio = np.divide(np.abs(s_a - s_p), den, out=np.zeros_like(den), where=den > 0)
    return ref, ratio


class TripletSampler:
    """Draws accepted triplets from a fixed score vector.

    Args:
        scores: Per-record scores aligned with the dataset order; >= 3 entries.
        config: Window bounds, seed, pair reference, and proposal budget.

    Raises:
        InputError: Fewer than 3 scores (a config is valid once built).
    """

    def __init__(self, scores, config: SamplerConfig = SamplerConfig()):
        self.scores = np.asarray(scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise InputError(f"scores must be one per record, got shape {self.scores.shape}")
        if self.scores.size < 3:
            raise InputError(f"need at least 3 records, got {self.scores.size}")
        self.config = config
        self.stats = SamplerStats()
        self._rng = np.random.default_rng(config.seed)
        self._since_accept = 0
        self._pos = _CHUNK  # position of the next pending proposal; _CHUNK = none left

    def _refill(self):
        """Draws the next chunk of proposals and indexes its acceptances once."""
        idx = self._rng.integers(0, self.scores.size, size=(_CHUNK, 3)).T
        distinct = (idx[0] != idx[1]) & (idx[0] != idx[2]) & (idx[1] != idx[2])
        _, ratio = window(self.scores, idx, self.config.pair_ref)
        accept = distinct & (ratio > self.config.alpha) & (ratio < self.config.beta)
        self._hits = hits = np.flatnonzero(accept)
        # distinct proposals in positions [i, j) number seen[j] - seen[i]
        self._seen = np.zeros(_CHUNK + 1, dtype=np.int64)
        np.cumsum(distinct, out=self._seen[1:])
        self._accepted = idx[:, hits]  # accepted proposals in order, (3, m)
        # gaps: 1 + the distinct rejections before each acceptance, the first
        # run carrying the last chunk's tail; the first run at or over budget starves
        at = self._seen[hits]
        gaps = at - np.concatenate(([-1 - self._since_accept], at[:-1]))
        over = np.flatnonzero(gaps > self.config.max_proposals)
        self._starve_at = int(over[0]) if over.size else hits.size
        self._pos = 0
        self._next_hit = 0

    def collect_indices(self, k: int) -> np.ndarray:
        """Accept ``k`` triplets; returns their (3, k) int64 indices, rows a, p, n.

        A ``k`` of 0 or less returns a (3, 0) array and consumes no proposal.

        Raises:
            SamplerStarvationError: ``max_proposals`` consecutive distinct
                proposals went by without an acceptance, wherever the run falls.
        """
        parts = [np.empty((3, 0), dtype=np.int64)]
        while k > 0:
            if self._pos >= _CHUNK:
                self._refill()
            hits, seen = self._hits, self._seen
            first = self._next_hit
            stop = min(first + k, self._starve_at)
            if stop == first + k:
                cut = int(hits[stop - 1]) + 1
            else:  # up to the chunk's end, or to the acceptance out of budget, which stays pending
                cut = int(hits[stop]) if stop < hits.size else _CHUNK
            consumed_distinct = int(seen[cut] - seen[self._pos])
            self.stats.proposed += consumed_distinct
            self.stats.accepted += stop - first
            if stop > first:
                # proposals after the stretch's last acceptance stay pending
                self._since_accept = int(seen[cut] - seen[hits[stop - 1] + 1])
                parts.append(self._accepted[:, first:stop])
                k -= stop - first
            else:
                self._since_accept += consumed_distinct
            self._pos, self._next_hit = cut, stop
            if k > 0 and self._since_accept >= self.config.max_proposals:
                raise SamplerStarvationError(self._since_accept, self.stats.acceptance_rate)
        return np.concatenate(parts, axis=1)


def estimate_cardinality(n_images: int, stats: SamplerStats) -> float:
    """Estimated count of ordered distinct triples inside the window.

    Scales the empirical acceptance rate by the n(n-1)(n-2) ordered distinct
    triples of an n-image collection.
    """
    if stats.proposed <= 0:
        raise InputError("estimate_cardinality needs at least one proposal")
    return stats.acceptance_rate * n_images * (n_images - 1) * (n_images - 2)
