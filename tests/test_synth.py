import json
import math
import sys

import numpy as np
import pytest

from aespace.data_model import compute_score, load_dataset, save_dataset, score_histogram
from aespace.errors import ConfigError
from aespace.synth import (
    BASIS_SIZE,
    SynthConfig,
    basis,
    generate,
    mixing_matrix,
    write_sidecar,
)


class TestConfig:
    def test_valid(self):
        SynthConfig(n=1, d_in=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, d_in=4),
            dict(n=10, d_in=1),
            dict(n=10, d_in=4, noise_sigma=-0.1),
            dict(n=10, d_in=4, noise_sigma=float("nan")),
            dict(n=10, d_in=4, noise_sigma=float("inf")),
            dict(n=10, d_in=4, view_range=(99, 1000)),
            dict(n=10, d_in=4, view_range=(1000, 1000)),
            dict(n=10, d_in=4, view_range=(2000, 1000)),
            dict(n=10, d_in=4, view_range=(1000, int(sys.float_info.max) + 1)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)


class TestBasis:
    def test_values(self):
        np.testing.assert_allclose(basis(0.0), [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(basis(0.5), [0.5, 0.25, 0.125, 0.0, -1.0], atol=1e-12)

    def test_size(self):
        assert basis(0.3).shape == (BASIS_SIZE,)


class TestGenerate:
    def test_determinism(self):
        cfg = SynthConfig(n=40, d_in=6, noise_sigma=0.1, seed=123)
        a = generate(cfg)
        b = generate(cfg)
        assert a.ids == b.ids
        assert a.views == b.views
        assert a.faves == b.faves
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.latent_scores, b.latent_scores)

    def test_records_pass_validation(self, tmp_path):
        cfg = SynthConfig(n=100, d_in=4, noise_sigma=0.3, seed=5)
        ds = generate(cfg)
        assert len(ds) == 100
        assert ds.d_in == 4
        assert ds.features.shape == (100, 4)
        assert all(cfg.view_range[0] <= v <= cfg.view_range[1] for v in ds.views)
        assert np.all((0.0 <= ds.latent_scores) & (ds.latent_scores <= 1.0))
        # the loader validates every row and rejects none
        save_dataset(ds, tmp_path / "d.jsonl")
        assert load_dataset(tmp_path / "d.jsonl").ids == ds.ids

    def test_ids_unique(self):
        ds = generate(SynthConfig(n=50, d_in=3, seed=2))
        assert len(set(ds.ids)) == 50

    def test_score_recovery_universal_bound(self):
        cfg = SynthConfig(n=300, d_in=4, noise_sigma=0.0, seed=11)
        ds = generate(cfg)
        # faves = max(1, round(V**s)) lies within a factor 2 of V**s, so
        # ln(faves) / ln(V) is off by at most ln 2 / ln view_lo
        bound = math.log(2) / math.log(cfg.view_range[0])
        for v, f, s in zip(ds.views, ds.faves, ds.latent_scores):
            assert abs(compute_score(v, f) - s) <= bound

    def test_score_recovery_tight_at_high_view_counts(self):
        # bound shrinks as log(view lo) grows; frozen seed keeps the max
        # observed error well under 0.02 at this range
        cfg = SynthConfig(n=100, d_in=4, noise_sigma=0.0, seed=13, view_range=(10**8, 10**9))
        ds = generate(cfg)
        err = np.max(np.abs(ds.scores() - ds.latent_scores))
        assert err < 0.02

    def test_noise_free_features_follow_mixing_matrix(self):
        cfg = SynthConfig(n=30, d_in=5, noise_sigma=0.0, seed=9)
        ds = generate(cfg)
        mix = mixing_matrix(cfg)
        for features, s in zip(ds.features, ds.latent_scores):
            np.testing.assert_array_equal(features, mix @ basis(float(s)))

    def test_noise_changes_features_not_counts(self):
        clean = generate(SynthConfig(n=20, d_in=4, noise_sigma=0.0, seed=21))
        noisy = generate(SynthConfig(n=20, d_in=4, noise_sigma=0.5, seed=21))
        assert clean.views == noisy.views
        assert clean.faves == noisy.faves
        assert np.array_equal(clean.latent_scores, noisy.latent_scores)
        for rc, rn in zip(clean.features, noisy.features):
            assert not np.array_equal(rc, rn)

    def test_mixing_matrix_rows_unit_norm(self):
        mix = mixing_matrix(SynthConfig(n=1, d_in=7, seed=4))
        assert mix.shape == (7, BASIS_SIZE)
        np.testing.assert_allclose(np.linalg.norm(mix, axis=1), 1.0, atol=1e-12)

    def test_score_histogram_near_uniform(self):
        ds = generate(SynthConfig(n=10000, d_in=2, seed=42))
        _, counts = score_histogram(ds, 10)
        sigma = math.sqrt(10000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000) <= 3 * sigma)


class TestSidecar:
    def test_contents(self, tmp_path):
        cfg = SynthConfig(n=5, d_in=3, noise_sigma=0.2, seed=8)
        path = tmp_path / "side.json"
        write_sidecar(cfg, path)
        payload = json.loads(path.read_text())
        assert payload["n"] == 5
        assert payload["d_in"] == 3
        assert payload["seed"] == 8
        matrix = np.array(payload["mixing_matrix"])
        assert matrix.shape == (3, BASIS_SIZE)
        np.testing.assert_array_equal(matrix, mixing_matrix(cfg))
