"""Rejection sampling of training triplets under a score-ratio window.

A proposal is an ordered distinct index triple (a, p, n) drawn uniformly.
With pair reference R = (score(a) + score(p)) / 2 (or score(a) when
``pair_ref="anchor"``), the proposal is accepted iff

    alpha < |score(a) - score(p)| / |R - score(n)| < beta     (strictly).

A zero denominator counts as a rejection, not an error. Acceptance
statistics are tracked per proposal so the size of the accepted-triple
space can be estimated from the acceptance rate.

A sampler owns one RNG stream (numpy PCG64 seeded from its config) and is
not safe to share across concurrent callers; run one instance per thread
with distinct seeds instead. Proposals are drawn in buffered blocks, but
the proposal sequence consumed is a pure function of the seed, independent
of how many triplets each call requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInputError, SamplerStarvationError

PAIR_REFS = ("mean", "anchor")


@dataclass(frozen=True)
class SamplerConfig:
    alpha: float = 0.25
    beta: float = 0.75
    seed: int = 0
    pair_ref: str = "mean"
    max_proposals: int = 1_000_000

    def validate(self) -> None:
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


class TripletSampler:
    """Draws accepted triplets from a fixed score vector.

    Args:
        scores: Per-record scores aligned with the dataset order; >= 3 entries.
        config: Window bounds, seed, pair reference, and proposal budget.
    """

    def __init__(self, scores, config: SamplerConfig = SamplerConfig()):
        config.validate()
        self.scores = np.asarray(scores, dtype=np.float64)
        if self.scores.ndim != 1 or self.scores.size < 3:
            raise ConfigError(f"need at least 3 aligned scores, got shape {self.scores.shape}")
        self.config = config
        self.stats = SamplerStats()
        self._rng = np.random.default_rng(config.seed)
        self._since_accept = 0
        self._buf = None
        self._pos = 0

    def _refill(self):
        n = self.scores.size
        idx = self._rng.integers(0, n, size=(_CHUNK, 3))
        a, p, neg = idx[:, 0], idx[:, 1], idx[:, 2]
        distinct = (a != p) & (a != neg) & (p != neg)
        s_a, s_p, s_n = self.scores[a], self.scores[p], self.scores[neg]
        if self.config.pair_ref == "mean":
            ref = 0.5 * (s_a + s_p)
        else:
            ref = s_a
        num = np.abs(s_a - s_p)
        den = np.abs(ref - s_n)
        ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        accept = (
            distinct
            & (den > 0)
            & (ratio > self.config.alpha)
            & (ratio < self.config.beta)
        )
        self._buf = (idx, distinct, accept, ratio, ref > s_n)
        self._pos = 0

    def collect_indices(self, k: int):
        """Accept ``k`` triplets; returns index/flag/ratio arrays of length k.

        Returns:
            (a, p, n, pair_above, ratio) numpy arrays.

        Raises:
            SamplerStarvationError: ``max_proposals`` consecutive proposals
                went by without an acceptance.
        """
        if k <= 0:
            empty = np.empty(0)
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                empty,
            )
        rows = []
        got = 0
        while got < k:
            if self._buf is None or self._pos >= _CHUNK:
                self._refill()
            idx, distinct, accept, ratio, above = self._buf
            pos = self._pos
            hits = np.flatnonzero(accept[pos:])
            need = k - got
            if hits.size >= need:
                cut = pos + int(hits[need - 1]) + 1
                take = pos + hits[:need]
            else:
                cut = _CHUNK
                take = pos + hits
            consumed_distinct = int(np.count_nonzero(distinct[pos:cut]))
            self.stats.proposed += consumed_distinct
            self.stats.accepted += take.size
            if take.size:
                # proposals after the stretch's last acceptance stay pending
                last = int(take[-1])
                self._since_accept = int(np.count_nonzero(distinct[last + 1 : cut]))
            else:
                self._since_accept += consumed_distinct
            if take.size:
                rows.append(
                    (idx[take], above[take].copy(), ratio[take].copy())
                )
                got += take.size
            self._pos = cut
            if got < k and self._since_accept >= self.config.max_proposals:
                raise SamplerStarvationError(self._since_accept, self.stats.acceptance_rate)

        idx = np.concatenate([r[0] for r in rows])
        above = np.concatenate([r[1] for r in rows])
        ratio = np.concatenate([r[2] for r in rows])
        return idx[:, 0], idx[:, 1], idx[:, 2], above, ratio


def estimate_cardinality(n_images: int, stats: SamplerStats) -> float:
    """Estimated count of ordered distinct triples inside the window.

    Scales the empirical acceptance rate by the n(n-1)(n-2) ordered distinct
    triples of an n-image collection.
    """
    if stats.proposed <= 0:
        raise EmptyInputError("estimate_cardinality needs at least one proposal")
    return stats.acceptance_rate * n_images * (n_images - 1) * (n_images - 2)
