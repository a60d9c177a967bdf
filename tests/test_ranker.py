import math

import numpy as np
import pytest
from scipy.stats import kendalltau, ortho_group

from aespace import cli, encoder
from aespace.data_model import Dataset, ImageRecord, save_dataset
from aespace.errors import ConfigError, InputError
from aespace.ranker import (
    kendall_tau,
    pairwise_agreement,
    projection_score,
    rank_collection,
)


def identity_params(dim):
    params = encoder.init([dim, dim], seed=0)
    params.weights[0] = np.eye(dim)
    params.biases[0] = np.zeros(dim)
    return params


def make_dataset(feature_rows, ids=None):
    records = []
    for i, feats in enumerate(feature_rows):
        rec_id = ids[i] if ids else f"r{i}"
        records.append(ImageRecord(rec_id, 100, 5, np.asarray(feats, dtype=float)))
    return Dataset(records=records, d_in=len(feature_rows[0]))


class TestProjectionScore:
    def test_zero(self):
        assert projection_score(np.zeros(4)) == 0.0

    def test_three_four_five(self):
        assert projection_score(np.array([3.0, 4.0])) == 5.0

    def test_rotation_invariant(self):
        rng = np.random.default_rng(40)
        for dim in (2, 4, 7):
            phi = rng.normal(size=dim)
            q = ortho_group.rvs(dim, random_state=rng)
            assert abs(projection_score(q @ phi) - projection_score(phi)) < 1e-12

    def test_batch_gives_one_norm_per_row(self):
        phis = np.random.default_rng(41).normal(size=(5, 3))
        norms = projection_score(phis)
        assert norms.shape == (5,)
        for phi, norm in zip(phis, norms):
            assert norm == pytest.approx(projection_score(phi), rel=1e-15)


class TestRankCollection:
    def test_single_record(self):
        ds = make_dataset([[1.0, 2.0]])
        ranked = rank_collection(identity_params(2), ds)
        assert ranked == [("r0", pytest.approx(math.sqrt(5.0)))]

    def test_tie_broken_by_id(self):
        ds = make_dataset([[1.0, 0.0], [1.0, 0.0]], ids=["zzz", "aaa"])
        ranked = rank_collection(identity_params(2), ds)
        assert [rid for rid, _ in ranked] == ["aaa", "zzz"]

    def test_descending_scores(self):
        rng = np.random.default_rng(41)
        ds = make_dataset(rng.normal(size=(25, 3)).tolist())
        ranked = rank_collection(identity_params(3), ds)
        scores = [s for _, s in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len({rid for rid, _ in ranked}) == 25

    def test_empty_dataset(self):
        ds = Dataset(records=[], d_in=None)
        assert rank_collection(identity_params(2), ds) == []

    def test_dimension_mismatch(self):
        ds = make_dataset([[1.0, 2.0, 3.0]])
        with pytest.raises(ConfigError):
            rank_collection(identity_params(2), ds)

    def test_orthogonal_transform_preserves_order(self):
        rng = np.random.default_rng(42)
        features = rng.normal(size=(15, 4))
        ds = make_dataset(features.tolist())
        base = [rid for rid, _ in rank_collection(identity_params(4), ds)]

        q = ortho_group.rvs(4, random_state=rng)
        params = encoder.init([4, 4], seed=0)
        params.weights[0] = q
        params.biases[0] = np.zeros(4)
        rotated = [rid for rid, _ in rank_collection(params, ds)]
        assert rotated == base


class TestPairwiseAgreement:
    def test_perfect_agreement(self):
        rng = np.random.default_rng(43)
        true = rng.uniform(size=50)
        rows = pairwise_agreement(true, true, [0.1, 0.3, 0.5])
        for row in rows:
            if row.pairs:
                assert row.agreement == 1.0

    def test_reversed_is_zero(self):
        rng = np.random.default_rng(44)
        true = rng.uniform(size=50)
        rows = pairwise_agreement(-true, true, [0.1, 0.3])
        for row in rows:
            if row.pairs:
                assert row.agreement == 0.0

    def test_random_projection_near_half(self):
        rng = np.random.default_rng(45)
        true = rng.uniform(size=1000)
        proj = rng.normal(size=1000)
        (row,) = pairwise_agreement(proj, true, [0.1])
        assert row.pairs > 0
        assert abs(row.agreement - 0.5) < 0.05

    def test_projection_ties_count_as_disagreement(self):
        rows = pairwise_agreement([1.0, 1.0], [0.1, 0.9], [0.5])
        assert rows[0].pairs == 1
        assert rows[0].agreement == 0.0

    def test_no_qualifying_pairs_marked_nan(self):
        rows = pairwise_agreement([1.0, 2.0], [0.5, 0.6], [0.5])
        assert rows[0].pairs == 0
        assert math.isnan(rows[0].agreement)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(46)
        true = rng.uniform(size=200)
        proj = rng.normal(size=200)
        base = pairwise_agreement(proj, true, [0.1, 0.2, 0.4])
        squashed = pairwise_agreement(np.tanh(proj), true, [0.1, 0.2, 0.4])
        for a, b in zip(base, squashed):
            assert a.pairs == b.pairs
            assert a.agreement == pytest.approx(b.agreement)

    def test_input_validation(self):
        with pytest.raises(InputError):
            pairwise_agreement([1.0], [0.5], [0.1])
        with pytest.raises(InputError):
            pairwise_agreement([1.0, 2.0], [0.5], [0.1])
        with pytest.raises(InputError):
            pairwise_agreement([1.0, 2.0], [0.5, 0.6], [0.0])
        with pytest.raises(InputError):
            pairwise_agreement([1.0, 2.0], [0.5, 0.6], [0.3, 0.2])


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed(self):
        assert kendall_tau(["a", "b", "c", "d"], ["d", "c", "b", "a"]) == -1.0

    def test_single_swap(self):
        assert kendall_tau(["1", "2", "3"], ["1", "3", "2"]) == pytest.approx(1.0 / 3.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(47)
        ids = [f"x{i}" for i in range(60)]
        for _ in range(10):
            perm = rng.permutation(60)
            other = [ids[j] for j in perm]
            ours = kendall_tau(ids, other)
            # scipy computes tau between rank vectors of the two orders
            ranks_a = np.arange(60)
            ranks_b = np.empty(60, dtype=int)
            position = {rid: k for k, rid in enumerate(other)}
            for k, rid in enumerate(ids):
                ranks_b[k] = position[rid]
            expected = kendalltau(ranks_a, ranks_b).statistic
            assert ours == pytest.approx(expected, rel=1e-12)

    def test_mismatched_ids(self):
        with pytest.raises(InputError):
            kendall_tau(["a", "b"], ["a", "c"])
        with pytest.raises(InputError):
            kendall_tau(["a", "a", "b"], ["a", "b", "a"])
        with pytest.raises(InputError):
            kendall_tau(["a"], ["a"])


def run_on_identity_model(tmp_path, command, dataset, *flags):
    """Run ``command`` with a 2-D identity encoder; returns the output's lines."""
    model = tmp_path / "m.json"
    data = tmp_path / "d.jsonl"
    out = tmp_path / "out.csv"
    encoder.save(identity_params(2), model)
    save_dataset(dataset, data)
    argv = [command, "--model", model, "--input", data, *flags, "--out", out]
    assert cli.main([str(a) for a in argv]) == 0
    return out.read_text().splitlines()


class TestOutputs:
    def test_ranked_csv(self, tmp_path):
        ds = make_dataset([[1.0, 0.0], [0.0, 2.5]], ids=["a", "b"])
        lines = run_on_identity_model(tmp_path, "rank", ds)
        assert lines == ["rank,id,score", "1,b,2.5", "2,a,1.0"]

    def test_agreement_csv(self, tmp_path):
        # scores 0 and 1/3: the one pair is ordered the same way by the
        # norms, and no pair is more than 0.5 apart
        ds = Dataset(records=[
            ImageRecord("low", 1000, 1, np.array([1.0, 0.0])),
            ImageRecord("high", 1000, 10, np.array([2.0, 0.0])),
        ], d_in=2)
        lines = run_on_identity_model(tmp_path, "eval", ds, "--thresholds", "0.1,0.5")
        assert lines[0] == "delta,pairs,agreement"
        assert lines[1] == "0.1,1,1.0"
        assert lines[2] == "0.5,0,nan"
