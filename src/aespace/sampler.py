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
with distinct seeds instead. Proposals are drawn 2,048 at a time, and a
call hands out slices of one table per chunk: its acceptances, the running
count of distinct proposals through each (the tail rejected before the
chunk carried in), and the first that follows ``max_proposals`` or more
rejections in a row. The proposal stream is a pure function of the seed,
independent of how many triplets each call requests: ``trainer.train``
draws a window's triplets in one call, with the stats of one call a step.
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
        self._through = np.zeros(1, dtype=np.int64)  # an empty table: the first call draws
        self._open = self._next = self._run = 0

    def _refill(self):
        """Draws the next chunk of proposals and tables its acceptances once."""
        idx = self._rng.integers(0, self.scores.size, size=(_CHUNK, 3)).T
        distinct = (idx[0] != idx[1]) & (idx[0] != idx[2]) & (idx[1] != idx[2])
        _, ratio = window(self.scores, idx, self.config.pair_ref)
        hits = np.flatnonzero(distinct & (ratio > self.config.alpha) & (ratio < self.config.beta))
        self._accepted = idx[:, hits]  # accepted proposals in order, (3, m)
        # distinct proposals through each acceptance, from 0 at the last one handed out
        seen = np.cumsum(distinct) + self._run
        self._through = through = np.concatenate(([0], seen[hits]))
        gaps = through[1:] - through[:-1]
        over = np.flatnonzero(gaps > self.config.max_proposals)
        # hand-out stops before the first acceptance over budget, else at the chunk's end;
        # the run of distinct rejections there starves the sampler or is carried on
        self._open = int(over[0]) if over.size else hits.size
        self._run = int(gaps[self._open]) - 1 if over.size else int(seen[-1] - through[-1])
        self._next = 0

    def collect_indices(self, k: int) -> np.ndarray:
        """Accept ``k`` triplets; returns their (3, k) int64 indices, rows a, p, n.

        A ``k`` of 0 or less returns a (3, 0) array and consumes no proposal.

        Raises:
            SamplerStarvationError: ``max_proposals`` consecutive distinct
                proposals went by without an acceptance, wherever the run
                falls; a sampler that starved raises it again on every later call.
        """
        # one output filled in place, so each chunk's table is freed at its refill
        out = np.empty((3, max(k, 0)), dtype=np.int64)
        while k > 0:
            first, done = self._next, out.shape[1] - k
            stop = min(first + k, self._open)
            if stop > first:
                self.stats.proposed += int(self._through[stop] - self._through[first])
                self.stats.accepted += stop - first
                out[:, done:done + stop - first] = self._accepted[:, first:stop]
                self._next, k = stop, k - (stop - first)
            elif self._run < self.config.max_proposals:  # a tail within budget: draw on
                self._refill()
            else:
                self.stats.proposed += self._run
                raise SamplerStarvationError(self._run, self.stats.acceptance_rate)
        return out


def estimate_cardinality(n_images: int, stats: SamplerStats) -> float:
    """Estimated count of ordered distinct triples inside the window.

    Scales the empirical acceptance rate by the n(n-1)(n-2) ordered distinct
    triples of an n-image collection.
    """
    if stats.proposed <= 0:
        raise InputError("estimate_cardinality needs at least one proposal")
    return stats.acceptance_rate * n_images * (n_images - 1) * (n_images - 2)
