import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aespace import cli, sampler
from aespace.data_model import load_dataset, save_dataset
from aespace.errors import ConfigError, InputError, SamplerStarvationError
from aespace.sampler import (
    PAIR_REFS,
    SamplerConfig,
    SamplerStats,
    TripletSampler,
    estimate_cardinality,
)
from aespace.synth import SynthConfig, generate


def enumerate_accepted(scores, alpha, beta, pair_ref="mean"):
    """All ordered distinct (a, p, n) passing the strict ratio window."""
    accepted = set()
    n = len(scores)
    for a in range(n):
        for p in range(n):
            for k in range(n):
                if a == p or a == k or p == k:
                    continue
                ref = (scores[a] + scores[p]) / 2.0 if pair_ref == "mean" else scores[a]
                den = abs(ref - scores[k])
                if den == 0.0:
                    continue
                ratio = abs(scores[a] - scores[p]) / den
                if alpha < ratio < beta:
                    accepted.add((a, p, k))
    return accepted


def drain_accepted_set(sampler, min_proposals):
    accepted = set()
    while sampler.stats.proposed < min_proposals:
        a, p, n = sampler.collect_indices(20000)
        accepted.update(zip(a.tolist(), p.tolist(), n.tolist()))
    return accepted


class OracleSampler:
    """The sampler that scans its chunk for acceptances on every call."""

    def __init__(self, scores, config):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.config = config
        self.stats = SamplerStats()
        self._rng = np.random.default_rng(config.seed)
        self._since_accept = 0
        self._buf = None
        self._pos = 0

    def _refill(self):
        n = self.scores.size
        idx = self._rng.integers(0, n, size=(sampler._CHUNK, 3))
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

    def collect_indices(self, k):
        if k <= 0:
            empty_idx = np.empty(0, dtype=np.int64)
            return empty_idx, empty_idx, empty_idx, np.empty(0, dtype=bool), np.empty(0)
        rows = []
        got = 0
        while got < k:
            if self._buf is None or self._pos >= sampler._CHUNK:
                self._refill()
            idx, distinct, accept, ratio, above = self._buf
            pos = self._pos
            hits = np.flatnonzero(accept[pos:])
            need = k - got
            if hits.size >= need:
                cut = pos + int(hits[need - 1]) + 1
                take = pos + hits[:need]
            else:
                cut = sampler._CHUNK
                take = pos + hits
            if take.size:  # an acceptance after a run of max_proposals rejections starves
                starts = np.concatenate(([pos], take[:-1] + 1))
                runs = [int(np.count_nonzero(distinct[a:b])) for a, b in zip(starts, take)]
                runs[0] += self._since_accept
                over = [j for j, run in enumerate(runs) if run >= self.config.max_proposals]
                if over:
                    cut, take = int(take[over[0]]), take[: over[0]]
            consumed_distinct = int(np.count_nonzero(distinct[pos:cut]))
            self.stats.proposed += consumed_distinct
            self.stats.accepted += take.size
            if take.size:
                last = int(take[-1])
                self._since_accept = int(np.count_nonzero(distinct[last + 1 : cut]))
            else:
                self._since_accept += consumed_distinct
            if take.size:
                rows.append((idx[take], above[take].copy(), ratio[take].copy()))
                got += take.size
            self._pos = cut
            if got < k and self._since_accept >= self.config.max_proposals:
                raise SamplerStarvationError(self._since_accept, self.stats.acceptance_rate)

        idx = np.concatenate([r[0] for r in rows])
        above = np.concatenate([r[1] for r in rows])
        ratio = np.concatenate([r[2] for r in rows])
        return idx[:, 0], idx[:, 1], idx[:, 2], above, ratio


def collect_five(smp, k):
    """``collect_indices(k)`` with flags and ratios from ``window``: a, p, n, pair_above, ratio."""
    idx = smp.collect_indices(k)
    assert idx.shape == (3, max(k, 0)) and idx.dtype == np.int64 and idx.flags.c_contiguous
    ref, ratio = sampler.window(smp.scores, idx, smp.config.pair_ref)
    return (*idx, ref > smp.scores[idx[2]], ratio)


def _call(collect, k):
    try:
        return collect(k)
    except SamplerStarvationError as exc:
        return str(exc)


def assert_same_calls(scores, config, ks):
    """Each call returns what the oracle's does, with its stats, or its error."""
    smp, oracle = TripletSampler(scores, config), OracleSampler(scores, config)
    for k in ks:
        got, want = _call(lambda k: collect_five(smp, k), k), _call(oracle.collect_indices, k)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert (smp.stats.proposed, smp.stats.accepted) == (
            oracle.stats.proposed, oracle.stats.accepted)


class TestMatchesOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.9, 1.0]), min_size=3, max_size=9),
        alpha=st.floats(0.0, 2.0),
        width=st.floats(1e-3, 4.0),
        pair_ref=st.sampled_from(PAIR_REFS),
        max_proposals=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        ks=st.lists(st.sampled_from([0, 1, 7, 64, 3000]), min_size=1, max_size=6),
    )
    def test_same_triplets_stats_and_starvation(
        self, scores, alpha, width, pair_ref, max_proposals, seed, ks
    ):
        config = SamplerConfig(alpha=alpha, beta=alpha + width, seed=seed,
                               pair_ref=pair_ref, max_proposals=max_proposals)
        assert_same_calls(scores, config, ks)

    @pytest.mark.parametrize("pair_ref", PAIR_REFS)
    def test_call_ending_on_a_chunks_last_acceptance(self, pair_ref):
        # the second call takes exactly the first chunk's remaining acceptances,
        # so the distinct proposals after the last one must stay pending
        scores = [0.1, 0.12, 0.5, 0.8, 0.81]
        config = SamplerConfig(alpha=0.0, beta=0.02, seed=13, pair_ref=pair_ref)
        probe = OracleSampler(scores, config)
        probe._refill()
        _, distinct, accept, _, _ = probe._buf
        hits = np.flatnonzero(accept)
        assert hits.size > 2 and np.count_nonzero(distinct[hits[-1] + 1 :]) > 0
        assert_same_calls(scores, config, [hits.size - 1, 1, 1, 7])

    # 200 uniform scores and a narrow window: at seed 1 the runs before the first
    # five acceptances are 927, 3,459, 9,054, 212 and 25,133 rejections, so whole
    # chunks hold no acceptance, and the fourth acceptance is its chunk's last
    @pytest.mark.parametrize("max_proposals, ks", [
        (9054, [1, 1, 5]),  # the run before the third acceptance starves
        (9055, [1, 1, 5]),  # it does not; the run after the fourth starves in a chunk's tail
        (9055, [1, 1, 2, 1]),  # a call ends on the fourth, and the next call's tail starves
    ], ids=["third-starves", "tail-starves", "call-ends-then-tail-starves"])
    def test_runs_across_chunks(self, max_proposals, ks):
        scores = np.random.default_rng(5).uniform(size=200)
        config = SamplerConfig(alpha=0.5, beta=0.5002, seed=1, max_proposals=max_proposals)
        assert_same_calls(scores, config, ks)


class TestWindow:
    @pytest.mark.parametrize("pair_ref", PAIR_REFS)
    def test_matches_scalar_recomputation(self, pair_ref):
        # the mean of 0.1 and 0.3 ties the negative 0.2, two records tie at 0.9,
        # and 0.1 sits below every other score
        scores = np.array([0.2, 0.1, 0.3, 0.9, 0.9])
        idx = np.array(list(itertools.permutations(range(5), 3))).T
        ref, ratio = sampler.window(scores, idx, pair_ref)
        zero_den = ties = 0
        for j, (a, p, n) in enumerate(idx.T.tolist()):
            want_ref = (scores[a] + scores[p]) / 2.0 if pair_ref == "mean" else scores[a]
            den = abs(want_ref - scores[n])
            assert ref[j] == want_ref
            assert ratio[j] == (abs(scores[a] - scores[p]) / den if den else 0.0)
            zero_den += den == 0.0
            ties += scores[a] == scores[p]
        assert zero_den > 0 and ties > 0

    def test_zero_denominator_is_rejected_at_alpha_zero(self):
        # (1, 2, 0) has a zero denominator; its ratio 0 is not > alpha = 0
        scores = [0.2, 0.1, 0.3]
        _, ratio = sampler.window(np.array(scores), np.array([[1], [2], [0]]), "mean")
        assert ratio.tolist() == [0.0]
        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=1e18, seed=3))
        got = drain_accepted_set(smp, 5_000)
        assert got == enumerate_accepted(scores, 0.0, 1e18)
        assert (1, 2, 0) not in got


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.alpha == 0.25
        assert cfg.beta == 0.75
        assert cfg.pair_ref == "mean"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1),
            dict(alpha=0.5, beta=0.5),
            dict(alpha=0.5, beta=0.4),
            dict(pair_ref="median"),
            dict(max_proposals=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SamplerConfig(**kwargs)

    def test_needs_three_scores(self):
        with pytest.raises(InputError):
            TripletSampler([0.1, 0.9], SamplerConfig())


class TestKnownFixtures:
    def test_two_close_one_far(self):
        scores = [0.1, 0.12, 0.8]
        expected = enumerate_accepted(scores, 0.0, 0.5)
        assert expected == {(0, 1, 2), (1, 0, 2)}

        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=0.5, seed=0))
        a, p, n, above, ratio = collect_five(smp, 200)
        assert set(zip(a.tolist(), p.tolist(), n.tolist())) == expected
        np.testing.assert_allclose(ratio, 0.02 / 0.69, rtol=1e-9)
        assert not above.any()

    def test_wide_open_window_accepts_everything_nondegenerate(self):
        rng = np.random.default_rng(20)
        scores = rng.uniform(size=8).tolist()
        expected = enumerate_accepted(scores, 0.0, 1e18)
        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=1e18, seed=1))
        got = drain_accepted_set(smp, 50_000)
        assert got == expected

    def test_equal_scores_starve(self):
        smp = TripletSampler([0.5, 0.5, 0.5], SamplerConfig(alpha=0.25, beta=0.75, max_proposals=2000, seed=2))
        with pytest.raises(SamplerStarvationError) as exc:
            smp.collect_indices(1)
        assert exc.value.acceptance_rate == 0.0
        assert exc.value.proposals >= 2000

    @pytest.mark.parametrize("budget, run", [(1, 2), (13, 13)])
    def test_rejection_run_between_acceptances_starves(self, budget, run):
        # faves 10, 11 and 900 of 1,000 views: one distinct order in three is
        # accepted, and at seed 0 a run of 13 rejections sits between two
        # acceptances well inside the first chunk, before the 100th acceptance
        scores = np.log([10, 11, 900]) / np.log(1000)

        def make(budget):
            return TripletSampler(scores, SamplerConfig(alpha=0.0, beta=0.5, seed=0, max_proposals=budget))

        smp = make(budget)
        with pytest.raises(SamplerStarvationError) as exc:
            smp.collect_indices(100)
        assert exc.value.proposals == run
        assert smp.stats.proposed < sampler._CHUNK
        assert make(14).collect_indices(100).shape == (3, 100)

    def test_exact_tie_denominator_rejected(self):
        # mean of 0.1 and 0.3 equals the negative's score exactly
        scores = [0.1, 0.3, 0.2, 0.9]
        expected = enumerate_accepted(scores, 0.0, 1e18)
        assert (0, 1, 2) not in expected
        assert (1, 0, 2) not in expected
        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=1e18, seed=3))
        got = drain_accepted_set(smp, 30_000)
        assert got == expected


class TestSoundness:
    def test_accepted_triplets_satisfy_window(self):
        ds = generate(SynthConfig(n=100, d_in=2, seed=6))
        scores = ds.scores()
        cfg = SamplerConfig(alpha=0.25, beta=0.75, seed=7)
        smp = TripletSampler(scores, cfg)
        for a, p, n, above, got in zip(*(arr.tolist() for arr in collect_five(smp, 10_000))):
            assert len({a, p, n}) == 3
            ref = (scores[a] + scores[p]) / 2.0
            den = abs(ref - scores[n])
            assert den > 0.0
            ratio = abs(scores[a] - scores[p]) / den
            assert cfg.alpha < ratio < cfg.beta
            assert got == pytest.approx(ratio, rel=1e-12)
            assert above == (ref > scores[n])


class TestCompleteness:
    def test_small_scale_equals_enumeration(self):
        rng = np.random.default_rng(21)
        scores = rng.uniform(size=12).tolist()
        expected = enumerate_accepted(scores, 0.25, 0.75)
        smp = TripletSampler(scores, SamplerConfig(seed=9))
        got = drain_accepted_set(smp, 300_000)
        assert got == expected

    def test_anchor_reference_reading(self):
        rng = np.random.default_rng(22)
        scores = rng.uniform(size=10).tolist()
        expected = enumerate_accepted(scores, 0.25, 0.75, pair_ref="anchor")
        smp = TripletSampler(scores, SamplerConfig(seed=10, pair_ref="anchor"))
        got = drain_accepted_set(smp, 200_000)
        assert got == expected
        a, p, n, _, ratio = collect_five(
            TripletSampler(scores, SamplerConfig(seed=11, pair_ref="anchor")), 500)
        scores = np.asarray(scores)
        expected = np.abs(scores[a] - scores[p]) / np.abs(scores[a] - scores[n])
        np.testing.assert_allclose(ratio, expected, rtol=1e-12)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        scores = generate(SynthConfig(n=50, d_in=2, seed=1)).scores()
        a = TripletSampler(scores, SamplerConfig(seed=5)).collect_indices(100)
        b = TripletSampler(scores, SamplerConfig(seed=5)).collect_indices(100)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_call_pattern_does_not_change_stream(self):
        scores = generate(SynthConfig(n=50, d_in=2, seed=1)).scores()
        ba, bp, bn = TripletSampler(scores, SamplerConfig(seed=5)).collect_indices(60)
        single = TripletSampler(scores, SamplerConfig(seed=5))
        one_by_one = [single.collect_indices(1) for _ in range(60)]
        assert list(zip(ba.tolist(), bp.tolist(), bn.tolist())) == [
            (int(a[0]), int(p[0]), int(n[0])) for a, p, n in one_by_one
        ]


class TestStats:
    def test_counts(self):
        scores = generate(SynthConfig(n=40, d_in=2, seed=2)).scores()
        smp = TripletSampler(scores, SamplerConfig(seed=3))
        smp.collect_indices(1000)
        assert smp.stats.accepted == 1000
        assert smp.stats.proposed >= 1000
        assert 0.0 < smp.stats.acceptance_rate <= 1.0

    def test_empty_rate(self):
        assert SamplerStats().acceptance_rate == 0.0


class TestBalanceFraction:
    # the share of accepted triplets whose pair reference lies above the
    # negative, read from the pair_above flags ``window`` gives a collected block

    def test_all_above(self):
        # the close pair scores high and the only far record low
        smp = TripletSampler([0.9, 0.88, 0.2], SamplerConfig(alpha=0.0, beta=0.5, seed=0))
        above = collect_five(smp, 200)[3]
        assert above.mean() == 1.0

    def test_half(self):
        # two close pairs far apart: every accepted triplet takes one pair and
        # a negative from the other, so half the accepted set lies above
        scores = [0.1, 0.12, 0.8, 0.82]
        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=0.5, seed=1))
        a, p, n, above, _ = collect_five(smp, 2000)
        accepted = set(zip(a.tolist(), p.tolist(), n.tolist(), above.tolist()))
        assert {t[:3] for t in accepted} == enumerate_accepted(scores, 0.0, 0.5)
        assert sum(t[3] for t in accepted) / len(accepted) == 0.5

    def test_empty_request_draws_nothing(self):
        smp = TripletSampler([0.1, 0.5, 0.9], SamplerConfig())
        for k in (0, -1, -64):
            idx = smp.collect_indices(k)
            assert idx.shape == (3, 0) and idx.dtype == np.int64
            assert (smp.stats.proposed, smp.stats.accepted) == (0, 0)
        arrays = collect_five(smp, 0)
        assert [arr.size for arr in arrays] == [0] * 5
        assert arrays[3].dtype == bool
        # the stream is where a fresh sampler's starts
        np.testing.assert_array_equal(
            smp.collect_indices(5), TripletSampler([0.1, 0.5, 0.9], SamplerConfig()).collect_indices(5))

    def test_near_balanced_on_uniform_scores(self):
        scores = generate(SynthConfig(n=500, d_in=2, seed=8)).scores()
        smp = TripletSampler(scores, SamplerConfig(alpha=0.25, beta=0.75, seed=4))
        above = collect_five(smp, 10_000)[3]
        assert 0.4 <= above.mean() <= 0.6


class TestCardinality:
    def test_full_acceptance(self):
        stats = SamplerStats(proposed=100, accepted=100)
        assert estimate_cardinality(10, stats) == pytest.approx(720)

    def test_half_acceptance(self):
        stats = SamplerStats(proposed=100, accepted=50)
        assert estimate_cardinality(4, stats) == pytest.approx(12)

    def test_no_proposals_raises(self):
        with pytest.raises(InputError):
            estimate_cardinality(10, SamplerStats())

    def test_matches_enumeration_within_fifteen_percent(self):
        rng = np.random.default_rng(23)
        scores = rng.uniform(size=20).tolist()
        exact = len(enumerate_accepted(scores, 0.25, 0.75))
        smp = TripletSampler(scores, SamplerConfig(seed=12))
        while smp.stats.proposed < 100_000:
            smp.collect_indices(10_000)
        estimate = estimate_cardinality(20, smp.stats)
        assert abs(estimate - exact) / exact < 0.15

    def test_published_scale_consistency(self):
        # 380k images at an acceptance rate around 1.3e-4 lands near 7e12
        stats = SamplerStats(proposed=10_000_000, accepted=1300)
        estimate = estimate_cardinality(380_000, stats)
        assert abs(estimate - 7e12) / 7e12 < 0.05


def run_sample(tmp_path, *flags):
    """Run the sample subcommand on a small synthetic dataset; returns the CSV path."""
    tmp_path.mkdir(exist_ok=True)
    data = tmp_path / "d.jsonl"
    save_dataset(generate(SynthConfig(n=40, d_in=2, seed=2)), data)
    out = tmp_path / "t.csv"
    assert cli.main(["sample", "--input", str(data), *flags, "--out", str(out)]) == 0
    return out


class TestOutputs:
    def test_triplets_csv(self, tmp_path):
        out = run_sample(tmp_path, "--count", "50", "--seed", "6")
        lines = out.read_text().splitlines()
        assert lines[0] == "a,p,n,pair_above,ratio"
        scores = generate(SynthConfig(n=40, d_in=2, seed=2)).scores()
        arrays = collect_five(TripletSampler(scores, SamplerConfig(seed=6)), 50)
        expected = [
            f"{a},{p},{n},{'true' if above else 'false'},{ratio!r}"
            for a, p, n, above, ratio in zip(*(arr.tolist() for arr in arrays))
        ]
        assert lines[1:] == expected
        assert {line.split(",")[3] for line in lines[1:]} == {"true", "false"}

    def test_run_sidecar(self, tmp_path):
        out = run_sample(
            tmp_path, "--count", "20", "--alpha", "0.1", "--beta", "0.9",
            "--seed", "44", "--pair-ref", "anchor",
        )
        meta = json.loads(out.with_name("t.csv.meta.json").read_text())
        assert meta["config"]["alpha"] == 0.1
        assert meta["config"]["beta"] == 0.9
        assert meta["config"]["seed"] == 44
        assert meta["config"]["pair_ref"] == "anchor"
        stats = meta["stats"]
        assert stats["accepted"] == 20
        assert stats["acceptance_rate"] == stats["accepted"] / stats["proposed"]

    @pytest.mark.parametrize("flags", [
        ("--count", "50", "--seed", "6"),
        ("--count", "50", "--seed", "7", "--pair-ref", "anchor", "--alpha", "0.1", "--beta", "0.3"),
    ], ids=["mean", "anchor"])
    def test_blocks_do_not_change_the_output(self, tmp_path, monkeypatch, flags):
        whole = run_sample(tmp_path / "whole", *flags)
        requests = []
        collect = TripletSampler.collect_indices

        def spy(self, k):
            requests.append(k)
            return collect(self, k)

        monkeypatch.setattr(TripletSampler, "collect_indices", spy)
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 7)
        blocks = run_sample(tmp_path / "blocks", *flags)
        assert requests == [7] * 7 + [1]
        assert blocks.read_bytes() == whole.read_bytes()
        stats = [json.loads(Path(f"{out}.meta.json").read_text())["stats"] for out in (whole, blocks)]
        assert stats[0] == stats[1]

    def test_starving_after_a_block_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # one close pair and one far record: 2 of the 6 distinct orders are
        # accepted, and a budget of 12 lets 64 through but starves before 1,000
        data = tmp_path / "d.jsonl"
        data.write_text("".join(
            json.dumps({"id": f"r{i}", "views": 1000, "faves": faves, "features": [0.0]}) + "\n"
            for i, faves in enumerate((10, 11, 900))))
        flags = dict(alpha=0.0, beta=0.5, seed=4, max_proposals=12)
        smp = TripletSampler(load_dataset(data).scores(), SamplerConfig(**flags))
        smp.collect_indices(64)  # at least one whole block is written first
        with pytest.raises(SamplerStarvationError):
            smp.collect_indices(1000)
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 64)
        out = tmp_path / "t.csv"
        code = cli.main(["sample", "--input", str(data), "--count", "1000", "--alpha", "0",
                         "--beta", "0.5", "--seed", "4", "--max-proposals", "12",
                         "--out", str(out)])
        assert code == 1
        assert "no acceptable triplet" in capsys.readouterr().err
        # the input was read to its end, so only its twin is new
        assert sorted(tmp_path.iterdir()) == [data, tmp_path / "d.jsonl.twin"]
