import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kendalltau, ortho_group

from aespace import cli, encoder
from aespace.data_model import ROW_BLOCK, Dataset, save_dataset
from aespace.errors import InputError, NonFiniteError
from aespace.ranker import (
    embed,
    kendall_tau,
    pairwise_agreement,
    projection_score,
    rank_collection,
)


def oracle_pairwise_agreement(projection_scores, true_scores, thresholds):
    """The quadratic reference: every one of the n(n-1)/2 pairs at once.

    Returns (delta, pairs, agreement) per threshold.
    """
    proj = np.asarray(projection_scores, dtype=np.float64)
    true = np.asarray(true_scores, dtype=np.float64)
    iu, ju = np.triu_indices(proj.size, k=1)
    dt = true[iu] - true[ju]
    dp = proj[iu] - proj[ju]
    agree = ((dt > 0) & (dp > 0)) | ((dt < 0) & (dp < 0))
    rows = []
    for thr in thresholds:
        sel = np.abs(dt) > thr
        pairs = int(np.count_nonzero(sel))
        rows.append((float(thr), pairs, float(np.mean(agree[sel])) if pairs else math.nan))
    return rows


def oracle_kendall_tau(order_a, order_b):
    """The quadratic reference: the sign sum over an n x n rank-difference matrix."""
    n = len(order_a)
    pos_b = {rec_id: i for i, rec_id in enumerate(order_b)}
    ranks = np.array([pos_b[rec_id] for rec_id in order_a])
    diff_sign = np.sign(ranks[None, :] - ranks[:, None])
    iu, ju = np.triu_indices(n, k=1)
    return int(diff_sign[iu, ju].sum()) / (n * (n - 1) / 2)


# score values whose differences sit on float rounding boundaries:
# 0.3 - 0.1 != 0.2 and 0.1 + 0.2 != 0.3
TRICKY_SCORES = [0.0, 0.1, 0.2, 0.3, 0.3 - 0.1, 0.1 + 0.2, 0.5, 0.7, 0.9, 1.0]


@st.composite
def agreement_inputs(draw):
    """Scores with ties in both lists, and thresholds on or next to exact gaps."""
    n = draw(st.integers(2, 40))
    true = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from(TRICKY_SCORES), st.floats(0.0, 1.0))))
    proj = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, 1.0, 2.0]), st.floats(-5.0, 5.0))))
    gap = draw(st.sampled_from(np.abs(true[:, None] - true[None, :]).ravel().tolist()))
    candidates = {0.1, 0.2, 0.3, 0.3 - 0.1, 0.1 + 0.2, 0.4, 0.6,
                  gap, float(np.nextafter(gap, 0.0)), float(np.nextafter(gap, 1.0))}
    thresholds = draw(st.lists(
        st.sampled_from(sorted(t for t in candidates if 0.0 < t < 1.0)), min_size=1, unique=True))
    return proj, true, sorted(thresholds)


def long_tie_runs_case():
    """1,500 true scores drawn from TRICKY_SCORES, so each value repeats in a
    run of about 150, with every exact gap between them and both its float
    neighbours as thresholds."""
    n = 1500
    rng = np.random.default_rng(49)
    true = rng.choice(TRICKY_SCORES, size=n)
    proj = np.where(rng.uniform(size=n) < 0.5, rng.integers(0, 3, size=n), rng.normal(size=n))
    gaps = {abs(a - b) for a in TRICKY_SCORES for b in TRICKY_SCORES}
    near = {float(t) for g in gaps for t in (g, np.nextafter(g, 0.0), np.nextafter(g, 1.0))}
    return proj, true, sorted(t for t in near if 0.0 < t < 1.0)


def identity_params(dim):
    params = encoder.init([dim, dim], seed=0)
    params.weights[0] = np.eye(dim)
    params.biases[0] = np.zeros(dim)
    return params


def make_dataset(feature_rows, ids=None):
    n = len(feature_rows)
    return Dataset(ids or [f"r{i}" for i in range(n)], [100] * n, [5] * n,
                   np.asarray(feature_rows, dtype=float), np.full(n, np.nan))


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


class TestEmbed:
    def test_returns_forward(self):
        x = np.random.default_rng(50).normal(size=(4, 2))
        np.testing.assert_array_equal(embed(identity_params(2), x)[0], x)

    # ROW_BLOCK + 1 and 2 * ROW_BLOCK + 1 leave one row over under range(0, n, ROW_BLOCK)
    # slicing, and the norms of each block must equal those of the whole output
    @pytest.mark.parametrize("n", [0, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_matches_one_pass(self, n):
        params = encoder.init([16, 64, 32, 16], seed=7)
        x = np.random.default_rng(51).normal(size=(n, 16))
        phi, norms = embed(params, x)
        want = encoder.forward(params, x)
        assert norms.shape == (n,)
        np.testing.assert_array_equal(phi, want)
        np.testing.assert_array_equal(norms, projection_score(want))

    def test_memory_holds_one_block_of_norm_temporaries(self):
        # the norms of the whole output at once add an (n, d_out) temporary: a 13.6 MB peak here
        params = encoder.init([16, 64, 32, 16], seed=7)
        x = np.random.default_rng(52).normal(size=(50_000, 16))
        tracemalloc.start()
        try:
            phi, _ = embed(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * phi.nbytes

    def test_single_vector(self):
        params = encoder.init([16, 64, 32, 16], seed=7)
        v = np.random.default_rng(53).normal(size=16)
        phi, norm = embed(params, v)
        assert phi.shape == (16,)
        assert np.ndim(norm) == 0
        assert norm == projection_score(phi)

    def test_single_non_finite_vector_rejected(self):
        with pytest.raises(NonFiniteError, match="1 of 1 input"):
            embed(identity_params(2), [1e200, 1.0])

    @pytest.mark.parametrize("row", [[1e200, 1e200], [math.nan, 0.0], [math.inf, 0.0]])
    def test_non_finite_output_or_norm_rejected(self, row):
        # 1e200 is finite, but its squared norm overflows
        with pytest.raises(NonFiniteError, match="1 of 2 input"):
            embed(identity_params(2), [[1.0, 2.0], row])


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
        ds = Dataset([], [], [], np.empty((0, 0)), np.empty(0))
        assert rank_collection(identity_params(2), ds) == []

    def test_dimension_mismatch(self):
        ds = make_dataset([[1.0, 2.0, 3.0]])
        with pytest.raises(InputError):
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


    @pytest.mark.parametrize("blocks", [1, 7])
    def test_order_with_many_ties_matches_key_sort(self, blocks):
        # 3,000 records over 9 distinct norms: long runs of ties, in file order
        # unlike id order, with one run split across blocks
        rng = np.random.default_rng(44)
        base = np.array([[0, 0], [1, 0], [0, -1], [0.6, 0.8], [2, 0], [0, 2],
                         [3, 4], [-4, 3], [1e-300, 0], [0.1, 0.2], [0.2, 0.1], [0.5, 0.5]])
        n = 3000
        features = base[rng.integers(0, len(base), size=n)]
        ids = [f"id{i:05d}" for i in rng.permutation(n)]
        ds = make_dataset(features, ids=ids)
        cuts = np.linspace(0, n, blocks + 1).astype(int).tolist()
        parts = [Dataset(ds.ids[a:b], ds.views[a:b], ds.faves[a:b], ds.features[a:b],
                         ds.latent_scores[a:b]) for a, b in zip(cuts, cuts[1:])]
        norms = projection_score(features).tolist()
        want = sorted(zip(ids, norms), key=lambda pair: (-pair[1], pair[0]))
        got = rank_collection(identity_params(2), parts if blocks > 1 else ds)
        assert got == want
        assert all(type(norm) is float for _, norm in got)

    def test_memory_beyond_the_result(self):
        # ranking by a (-norm, id) key tuple per record held 111 bytes a record
        # beyond the returned list at its peak
        n = 50_000
        rng = np.random.default_rng(45)
        ds = make_dataset(rng.integers(0, 50, size=(n, 2)) / 7.0,
                          ids=[f"img-{i:07d}" for i in rng.permutation(n)])
        tracemalloc.start()
        try:
            ranked = rank_collection(identity_params(2), ds)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranked) == n
        assert peak - held < 80 * n


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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(agreement_inputs())
    @example(long_tie_runs_case())
    @example((np.arange(300.0), np.full(300, 0.3), [0.1, 0.5, 0.9]))
    def test_matches_quadratic_oracle(self, case):
        proj, true, thresholds = case
        rows = pairwise_agreement(proj, true, thresholds)
        expected = oracle_pairwise_agreement(proj, true, thresholds)
        assert len(rows) == len(expected)
        for row, (delta, pairs, agreement) in zip(rows, expected):
            assert row.delta == delta
            assert row.pairs == pairs
            assert row.agreement == agreement or (math.isnan(agreement) and math.isnan(row.agreement))

    def test_gap_equal_to_threshold_is_excluded(self):
        # 0.3 - 0.1 rounds below 0.2, 0.1 + 0.2 - 0.1 rounds above it
        rows = pairwise_agreement([0.0, 1.0, 2.0], [0.1, 0.3, 0.1 + 0.2], [0.2])
        assert [dataclasses.astuple(r) for r in rows] == [(0.2, 1, 1.0)]
        assert oracle_pairwise_agreement([0.0, 1.0, 2.0], [0.1, 0.3, 0.1 + 0.2], [0.2]) == [(0.2, 1, 1.0)]

    def test_memory_stays_linear_at_20000(self):
        # the quadratic version needs gigabytes here
        rng = np.random.default_rng(48)
        true = rng.uniform(size=20_000)
        proj = true + rng.normal(0.0, 0.2, size=20_000)
        tracemalloc.start()
        try:
            (row,) = pairwise_agreement(proj, true, [0.4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.pairs > 0
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            pairwise_agreement([1.0, bad, 2.0], [0.1, 0.5, 0.9], [0.1])
        with pytest.raises(InputError, match="finite"):
            pairwise_agreement([1.0, 1.5, 2.0], [0.1, bad, 0.9], [0.1])

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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 60).flatmap(lambda n: st.permutations(range(n))))
    def test_matches_quadratic_oracle(self, perm):
        ids = [f"x{i}" for i in range(len(perm))]
        other = [ids[j] for j in perm]
        assert kendall_tau(ids, other) == oracle_kendall_tau(ids, other)

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
        ds = Dataset(["low", "high"], [1000, 1000], [1, 10],
                     np.array([[1.0, 0.0], [2.0, 0.0]]), np.full(2, np.nan))
        lines = run_on_identity_model(tmp_path, "eval", ds, "--thresholds", "0.1,0.5")
        assert lines[0] == "delta,pairs,agreement"
        assert lines[1] == "0.1,1,1.0"
        assert lines[2] == "0.5,0,nan"
