import json

import numpy as np
import pytest

from aespace import cli
from aespace.data_model import save_dataset
from aespace.errors import ConfigError, EmptyInputError, SamplerStarvationError
from aespace.sampler import (
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
        a, p, n, _, _ = sampler.collect_indices(20000)
        accepted.update(zip(a.tolist(), p.tolist(), n.tolist()))
    return accepted


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.alpha == 0.25
        assert cfg.beta == 0.75
        assert cfg.pair_ref == "mean"
        cfg.validate()

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
            SamplerConfig(**kwargs).validate()

    def test_needs_three_scores(self):
        with pytest.raises(ConfigError):
            TripletSampler([0.1, 0.9], SamplerConfig())


class TestKnownFixtures:
    def test_two_close_one_far(self):
        scores = [0.1, 0.12, 0.8]
        expected = enumerate_accepted(scores, 0.0, 0.5)
        assert expected == {(0, 1, 2), (1, 0, 2)}

        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=0.5, seed=0))
        a, p, n, above, ratio = smp.collect_indices(200)
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
        for a, p, n, above, got in zip(*(arr.tolist() for arr in smp.collect_indices(10_000))):
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
        a, p, n, _, ratio = TripletSampler(
            scores, SamplerConfig(seed=11, pair_ref="anchor")
        ).collect_indices(500)
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
        ba, bp, bn, _, _ = TripletSampler(scores, SamplerConfig(seed=5)).collect_indices(60)
        single = TripletSampler(scores, SamplerConfig(seed=5))
        one_by_one = [single.collect_indices(1) for _ in range(60)]
        assert list(zip(ba.tolist(), bp.tolist(), bn.tolist())) == [
            (int(a[0]), int(p[0]), int(n[0])) for a, p, n, _, _ in one_by_one
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
    # negative, read from collect_indices' pair_above flags

    def test_all_above(self):
        # the close pair scores high and the only far record low
        smp = TripletSampler([0.9, 0.88, 0.2], SamplerConfig(alpha=0.0, beta=0.5, seed=0))
        _, _, _, above, _ = smp.collect_indices(200)
        assert above.mean() == 1.0

    def test_half(self):
        # two close pairs far apart: every accepted triplet takes one pair and
        # a negative from the other, so half the accepted set lies above
        scores = [0.1, 0.12, 0.8, 0.82]
        smp = TripletSampler(scores, SamplerConfig(alpha=0.0, beta=0.5, seed=1))
        a, p, n, above, _ = smp.collect_indices(2000)
        accepted = set(zip(a.tolist(), p.tolist(), n.tolist(), above.tolist()))
        assert {t[:3] for t in accepted} == enumerate_accepted(scores, 0.0, 0.5)
        assert sum(t[3] for t in accepted) / len(accepted) == 0.5

    def test_empty_request_draws_nothing(self):
        smp = TripletSampler([0.1, 0.5, 0.9], SamplerConfig())
        arrays = smp.collect_indices(0)
        assert [arr.size for arr in arrays] == [0] * 5
        assert arrays[3].dtype == bool
        assert smp.stats.proposed == 0

    def test_near_balanced_on_uniform_scores(self):
        scores = generate(SynthConfig(n=500, d_in=2, seed=8)).scores()
        smp = TripletSampler(scores, SamplerConfig(alpha=0.25, beta=0.75, seed=4))
        _, _, _, above, _ = smp.collect_indices(10_000)
        assert 0.4 <= above.mean() <= 0.6


class TestCardinality:
    def test_full_acceptance(self):
        stats = SamplerStats(proposed=100, accepted=100)
        assert estimate_cardinality(10, stats) == pytest.approx(720)

    def test_half_acceptance(self):
        stats = SamplerStats(proposed=100, accepted=50)
        assert estimate_cardinality(4, stats) == pytest.approx(12)

    def test_no_proposals_raises(self):
        with pytest.raises(EmptyInputError):
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
        arrays = TripletSampler(scores, SamplerConfig(seed=6)).collect_indices(50)
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
