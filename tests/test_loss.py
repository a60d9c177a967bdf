import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ortho_group

from aespace.errors import InputError
from aespace.loss import LossConfig, batch_loss, directional_triplet_loss
from test_trainer import reference_batch_loss


def oracle_loss(phi_a, phi_p, phi_n, s_a, s_n, config):
    """Scalar reference for one triplet: (l_e, l_d, grad_a, grad_p, grad_n).

    Written term by term from the definitions in the ``loss`` module
    docstring, independently of the batched implementation.
    """
    d_ap = float(np.sum((phi_a - phi_p) ** 2))
    d_an = float(np.sum((phi_a - phi_n) ** 2))
    e_arg = config.margin_m + d_ap - d_an
    l_e = max(0.0, e_arg)

    grad_a = np.zeros_like(phi_a)
    grad_p = np.zeros_like(phi_p)
    grad_n = np.zeros_like(phi_n)
    if e_arg > 0.0:
        grad_a += 2.0 * (phi_n - phi_p)
        grad_p += -2.0 * (phi_a - phi_p)
        grad_n += 2.0 * (phi_a - phi_n)

    l_d = 0.0
    if config.directional_enabled:
        sign = float(np.sign(s_n - s_a))
        if sign != 0.0:
            norm_a = float(np.linalg.norm(phi_a))
            norm_n = float(np.linalg.norm(phi_n))
            if config.literal_sign_form:
                arg = norm_a - norm_n + config.margin_md
                l_d = sign * max(0.0, arg)
            else:
                arg = config.margin_md + sign * (norm_a - norm_n)
                l_d = max(0.0, arg)
            if arg > 0.0:
                if norm_a > 0.0:
                    grad_a += sign * phi_a / norm_a
                if norm_n > 0.0:
                    grad_n += -sign * phi_n / norm_n
    return l_e, l_d, grad_a, grad_p, grad_n


def total_loss(phi_a, phi_p, phi_n, s_a, s_n, config):
    return directional_triplet_loss(phi_a, phi_p, phi_n, s_a, s_n, config).total


def squared_distance(phi_i, phi_j):
    # with a = n and no margin, l_e = [|a - p|^2 - 0]+ = |a - p|^2
    return directional_triplet_loss(phi_i, phi_j, phi_i, 0.5, 0.5, LossConfig(margin_m=0.0)).l_e


def triplet_term(phi_a, phi_p, phi_n, m):
    return directional_triplet_loss(phi_a, phi_p, phi_n, 0.5, 0.5, LossConfig(margin_m=m)).l_e


def directional_term(phi_a, phi_n, s_a, s_n, md, literal):
    config = LossConfig(margin_md=md, literal_sign_form=literal)
    return directional_triplet_loss(phi_a, phi_a, phi_n, s_a, s_n, config).l_d


class TestDistance:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert squared_distance(v, v) == 0.0

    def test_unit(self):
        assert squared_distance(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0

    def test_three_four_five(self):
        assert squared_distance(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == 25.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 6))
        assert squared_distance(a, b) == squared_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            squared_distance(np.zeros(2), np.zeros(3))


class TestTripletLoss:
    def test_all_equal(self):
        v = np.array([0.3, 0.7])
        assert triplet_term(v, v, v, 0.2) == pytest.approx(0.2)

    def test_negative_far(self):
        one = np.array([1.0, 0.0])
        zero = np.array([0.0, 0.0])
        assert triplet_term(one, one, zero, 0.2) == 0.0

    def test_equidistant(self):
        zero = np.array([0.0, 0.0])
        one = np.array([1.0, 0.0])
        assert triplet_term(zero, one, one, 0.2) == pytest.approx(0.2)

    def test_non_negative_and_inactive_region(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, p, n = rng.normal(size=(3, 4))
            m = float(rng.uniform(0.01, 1.0))
            val = triplet_term(a, p, n, m)
            assert val >= 0.0
            if np.sum((a - n) ** 2) >= np.sum((a - p) ** 2) + m:
                assert val == 0.0


class TestDirectionalLoss:
    A = np.array([1.0, 0.0])
    N = np.array([0.5, 0.0])

    def test_negative_scored_higher(self):
        assert directional_term(self.A, self.N, 0.2, 0.8, 0.1, False) == pytest.approx(0.6)
        assert directional_term(self.A, self.N, 0.2, 0.8, 0.1, True) == pytest.approx(0.6)

    def test_score_tie(self):
        assert directional_term(self.A, self.N, 0.5, 0.5, 0.1, False) == 0.0
        assert directional_term(self.A, self.N, 0.5, 0.5, 0.1, True) == 0.0

    def test_anchor_scored_higher(self):
        assert directional_term(self.A, self.N, 0.8, 0.2, 0.1, False) == 0.0
        # printed form goes negative here: sign is -1 and the hinge is active
        assert directional_term(self.A, self.N, 0.8, 0.2, 0.1, True) == pytest.approx(-0.6)

    def test_hinge_form_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, n = rng.normal(size=(2, 3))
            s_a, s_n = rng.uniform(size=2)
            assert directional_term(a, n, s_a, s_n, 0.1, False) >= 0.0

    def test_zero_when_ordering_satisfied_by_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, n = rng.normal(size=(2, 3))
            s_a, s_n = rng.uniform(size=2)
            norm_a, norm_n = np.linalg.norm(a), np.linalg.norm(n)
            md = 0.1
            ordered = (s_n > s_a and norm_n >= norm_a + md) or (
                s_a > s_n and norm_a >= norm_n + md
            )
            if ordered:
                assert directional_term(a, n, s_a, s_n, md, False) == 0.0


class TestCombined:
    def test_all_equal_gradients_cancel(self):
        v = np.array([0.4, -0.2, 0.9])
        res = directional_triplet_loss(v, v, v, 0.5, 0.5, LossConfig(margin_m=0.2))
        assert res.total == pytest.approx(0.2)
        assert res.l_e == pytest.approx(0.2)
        assert res.l_d == 0.0
        np.testing.assert_array_equal(res.grad_a, np.zeros(3))
        np.testing.assert_array_equal(res.grad_p, np.zeros(3))
        np.testing.assert_array_equal(res.grad_n, np.zeros(3))

    def test_total_is_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 5))
            s_a, s_n = rng.uniform(size=2)
            res = directional_triplet_loss(a, p, n, s_a, s_n, LossConfig())
            assert res.total == pytest.approx(res.l_e + res.l_d)
            assert res.l_e >= 0.0

    def test_directional_disabled_matches_triplet_loss(self):
        rng = np.random.default_rng(5)
        cfg = LossConfig(directional_enabled=False)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 5))
            s_a, s_n = rng.uniform(size=2)
            res = directional_triplet_loss(a, p, n, s_a, s_n, cfg)
            assert res.total == oracle_loss(a, p, n, s_a, s_n, cfg)[0]
            assert res.l_d == 0.0

    def test_grad_p_untouched_by_directional_term(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 4))
            s_a, s_n = rng.uniform(size=2)
            with_dir = directional_triplet_loss(a, p, n, s_a, s_n, LossConfig())
            without = directional_triplet_loss(
                a, p, n, s_a, s_n, LossConfig(directional_enabled=False)
            )
            np.testing.assert_array_equal(with_dir.grad_p, without.grad_p)

    def test_zero_embedding_gradient_defined(self):
        zero = np.zeros(3)
        n = np.array([1.0, 0.0, 0.0])
        res = directional_triplet_loss(zero, n, n, 0.2, 0.8, LossConfig())
        assert np.all(np.isfinite(res.grad_a))
        assert np.all(np.isfinite(res.grad_n))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            directional_triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9, LossConfig())


class TestInvariances:
    def test_translation(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, p, n = rng.normal(size=(3, 6))
            shift = rng.normal(size=6)
            m = 0.2
            assert triplet_term(a + shift, p + shift, n + shift, m) == pytest.approx(
                triplet_term(a, p, n, m)
            )

    def test_translation_moves_directional_term(self):
        a = np.array([1.0, 0.0])
        n = np.array([0.5, 0.0])
        shift = np.array([0.0, 10.0])
        before = directional_term(a, n, 0.2, 0.8, 0.1, False)
        after = directional_term(a + shift, n + shift, 0.2, 0.8, 0.1, False)
        assert before != after

    def test_rotation(self):
        rng = np.random.default_rng(8)
        for dim in (2, 5, 8):
            for _ in range(10):
                a, p, n = rng.normal(size=(3, dim))
                s_a, s_n = rng.uniform(size=2)
                rot = ortho_group.rvs(dim, random_state=rng)
                cfg = LossConfig()
                before = total_loss(a, p, n, s_a, s_n, cfg)
                after = total_loss(rot @ a, rot @ p, rot @ n, s_a, s_n, cfg)
                assert after == pytest.approx(before, abs=1e-10)


def numeric_grads(phi_a, phi_p, phi_n, s_a, s_n, config, h=1e-6):
    grads = []
    for which in range(3):
        vecs = [phi_a.copy(), phi_p.copy(), phi_n.copy()]
        grad = np.zeros_like(vecs[which])
        for j in range(len(grad)):
            vecs[which][j] += h
            up = total_loss(*vecs, s_a, s_n, config)
            vecs[which][j] -= 2 * h
            down = total_loss(*vecs, s_a, s_n, config)
            vecs[which][j] += h
            grad[j] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def near_kink(phi_a, phi_p, phi_n, s_a, s_n, config, tol=1e-4):
    e_arg = config.margin_m + np.sum((phi_a - phi_p) ** 2) - np.sum((phi_a - phi_n) ** 2)
    sign = np.sign(s_n - s_a)
    if config.literal_sign_form:
        d_arg = np.linalg.norm(phi_a) - np.linalg.norm(phi_n) + config.margin_md
    else:
        d_arg = config.margin_md + sign * (np.linalg.norm(phi_a) - np.linalg.norm(phi_n))
    return abs(e_arg) < tol or (sign != 0 and abs(d_arg) < tol)


class TestGradientOracle:
    @pytest.mark.parametrize("literal", [False, True])
    def test_finite_differences(self, literal):
        rng = np.random.default_rng(9)
        config = LossConfig(literal_sign_form=literal)
        checked = 0
        while checked < 100:
            a, p, n = rng.normal(size=(3, 8))
            s_a, s_n = rng.uniform(size=2)
            if near_kink(a, p, n, s_a, s_n, config):
                continue
            res = directional_triplet_loss(a, p, n, s_a, s_n, config)
            numeric = numeric_grads(a, p, n, s_a, s_n, config)
            for exact, approx in zip((res.grad_a, res.grad_p, res.grad_n), numeric):
                scale = max(np.linalg.norm(exact), 1.0)
                assert np.linalg.norm(exact - approx) / scale < 1e-5
            checked += 1


@st.composite
def triplet_batches(draw):
    """Random batches with score ties, zero-norm rows and every loss form."""
    rows = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 6))
    values = st.floats(-3.0, 3.0, allow_subnormal=False)
    ea, ep, en = draw(hnp.arrays(np.float64, (3, rows, dim), elements=values))
    ea[draw(hnp.arrays(bool, rows))] = 0.0
    en[draw(hnp.arrays(bool, rows))] = 0.0
    # a coarse score grid makes ties between anchor and negative common
    scores = hnp.arrays(np.float64, rows, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    config = LossConfig(
        margin_m=draw(st.floats(0.0, 1.0)),
        margin_md=draw(st.floats(0.0, 1.0)),
        directional_enabled=draw(st.booleans()),
        literal_sign_form=draw(st.booleans()),
    )
    return ea, ep, en, draw(scores), draw(scores), config


def scattered(emb, rows, grad):
    """The live rows' gradients in the full stacked layout, zero elsewhere."""
    full = np.zeros_like(emb)
    full[rows] = grad
    return full


class TestBatchedLoss:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(triplet_batches())
    def test_matches_oracle_row_by_row(self, batch):
        ea, ep, en, s_a, s_n, config = batch
        emb = np.concatenate((ea, ep, en))
        le, ld, rows, grad = batch_loss(emb, s_a, s_n, config)
        g_a, g_p, g_n = np.split(scattered(emb, rows, grad), 3)
        for i in range(len(ea)):
            ref = oracle_loss(ea[i], ep[i], en[i], s_a[i], s_n[i], config)
            assert le[i] == pytest.approx(ref[0], rel=1e-12, abs=1e-15)
            assert ld[i] == pytest.approx(ref[1], rel=1e-12, abs=1e-15)
            for got, want in zip((g_a[i], g_p[i], g_n[i]), ref[2:]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("shape", [(7, 4), (6,)])
    def test_rows_must_be_three_per_score(self, shape):
        with pytest.raises(InputError, match="do not hold 3 x 2 rows"):
            batch_loss(np.zeros(shape), np.zeros(2), np.ones(2), LossConfig())

    def test_directional_disabled_zeroes_ld(self):
        rng = np.random.default_rng(31)
        cfg = LossConfig(directional_enabled=False)
        ea, ep, en = rng.normal(size=(3, 10, 4))
        emb = np.concatenate((ea, ep, en))
        _, ld, _, _ = batch_loss(emb, rng.uniform(size=10), rng.uniform(size=10), cfg)
        np.testing.assert_array_equal(ld, np.zeros(10))


def assert_live_rows_exact(ea, ep, en, s_a, s_n, config):
    """``batch_loss`` against the trainer tests' reference, bit for bit; returns ``rows``."""
    emb = np.concatenate((ea, ep, en))
    le, ld, rows, grad = batch_loss(emb, s_a, s_n, config)
    ref_le, ref_ld, *ref_grads = reference_batch_loss(ea, ep, en, s_a, s_n, config)
    ref = np.concatenate(ref_grads)
    np.testing.assert_array_equal(le, ref_le)
    np.testing.assert_array_equal(ld, ref_ld)
    assert grad.shape == (len(rows), emb.shape[1])
    assert np.all(np.diff(rows) > 0) and np.all((0 <= rows) & (rows < len(emb)))
    np.testing.assert_array_equal(scattered(emb, rows, grad), ref)
    left_out = np.ones(len(emb), bool)
    left_out[rows] = False
    assert not ref[left_out].any()
    return rows


class TestLiveRows:
    """``rows`` and ``grad`` scatter to the full-batch gradient exactly."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(triplet_batches())
    def test_scatter_matches_reference_bit_for_bit(self, batch):
        assert_live_rows_exact(*batch)

    @pytest.mark.parametrize("config", [
        LossConfig(), LossConfig(directional_enabled=False), LossConfig(literal_sign_form=True),
    ], ids=["hinge", "no_directional", "literal_sign"])
    def test_random_batches(self, config):
        rng = np.random.default_rng(32)
        for _ in range(50):
            ea, ep, en = rng.normal(size=(3, 64, 16))
            ea[rng.random(64) < 0.1] = 0.0
            s_a, s_n = rng.choice([0.2, 0.4, 0.6], size=(2, 64))
            rows = assert_live_rows_exact(ea, ep, en, s_a, s_n, config)
            assert 0 < len(rows) < 192

    def test_score_ties_leave_only_the_triplet_hinge(self):
        rng = np.random.default_rng(33)
        ea, ep, en = rng.normal(size=(3, 20, 4))
        s = rng.uniform(size=20)
        rows = assert_live_rows_exact(ea, ep, en, s, s.copy(), LossConfig())
        _, _, tied_rows, _ = batch_loss(np.concatenate((ea, ep, en)), s, s.copy(),
                                        LossConfig(directional_enabled=False))
        np.testing.assert_array_equal(rows, tied_rows)

    def test_zero_norm_anchor_is_live_with_a_zero_unit(self):
        # only the directional hinge is active, with |a| = 0: the anchor row is
        # live, but its unit vector is the zero vector, and so is its gradient
        ea = ep = np.zeros((1, 3))
        en = np.array([[0.0, 0.0, 1.0]])
        emb = np.concatenate((ea, ep, en))
        rows = assert_live_rows_exact(ea, ep, en, np.array([0.9]), np.array([0.1]), LossConfig())
        np.testing.assert_array_equal(rows, [0, 2])
        _, _, _, grad = batch_loss(emb, np.array([0.9]), np.array([0.1]), LossConfig())
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_no_active_hinge_gives_no_rows(self):
        ea = ep = np.ones((4, 4))
        en = np.full((4, 4), 5.0)
        for config in (LossConfig(), LossConfig(literal_sign_form=True)):
            rows = assert_live_rows_exact(ea, ep, en, np.full(4, 0.2), np.full(4, 0.8), config)
            assert rows.size == 0
