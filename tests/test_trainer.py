import dataclasses

import numpy as np
import pytest

from aespace import cli, encoder, trainer
from aespace.data_model import Dataset, save_dataset
from aespace.errors import ConfigError, DivergenceError, InputError, SamplerStarvationError
from aespace.loss import LossConfig
from aespace.sampler import SamplerConfig, TripletSampler
from aespace.synth import SynthConfig, generate
from aespace.trainer import TrainConfig, derive_seeds, train


def small_dataset(n=30, d_in=4, seed=1):
    return generate(SynthConfig(n=n, d_in=d_in, seed=seed))


def set_schedule(monkeypatch, **constants):
    """Overrides the trainer's schedule constants, e.g. PLATEAU_WINDOW=10."""
    for name, value in constants.items():
        monkeypatch.setattr(trainer, name, value)


def params_equal(a, b):
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)) and all(
        np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases)
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_steps=-1),
            dict(max_steps=10, lr_init=-1e-3),
            dict(max_steps=10, lr_init=float("nan")),
            dict(max_steps=10, lr_init=float("inf")),
            dict(max_steps=10, loss=dict(margin_m=float("nan"))),
            dict(max_steps=10, loss=dict(margin_m=float("inf"))),
            dict(max_steps=10, loss=dict(margin_md=float("nan"))),
            dict(max_steps=10, loss=dict(margin_md=float("-inf"))),
            dict(max_steps=10, lr_init=float("-inf")),
            dict(max_steps=10, hidden_dims=(0,)),
            dict(max_steps=10, batch_size=0),
            dict(max_steps=10, sampler=dict(alpha=0.5, beta=0.5)),
            dict(max_steps=10, sampler=dict(max_proposals=0)),
            dict(max_steps=10, embed_dim=0),
            dict(max_steps=10, hidden_dims=(8, 0)),
        ],
    )
    def test_invalid(self, kwargs):
        # a nested config given as a dict is built here, where its own check raises
        nested = {"loss": LossConfig, "sampler": SamplerConfig}
        with pytest.raises(ConfigError):
            TrainConfig(**{k: nested[k](**v) if k in nested else v for k, v in kwargs.items()})

    def test_needs_three_records(self):
        ds = Dataset(["a"], [100], [5], np.zeros((1, 2)), np.full(1, np.nan))
        with pytest.raises(InputError):
            train(ds, TrainConfig(max_steps=1))


class TestBasics:
    def test_zero_steps_returns_init(self):
        ds = small_dataset()
        config = TrainConfig(max_steps=0, seed=5)
        params, log = train(ds, config)
        init_seed, _ = derive_seeds(5)
        expected = encoder.init([ds.d_in, 64, 32, 16], init_seed)
        assert params_equal(params, expected)
        assert log.windows == []

    def test_zero_lr_means_no_movement(self):
        ds = small_dataset()
        config = TrainConfig(max_steps=50, lr_init=0.0, seed=5)
        params, _ = train(ds, config)
        init_seed, _ = derive_seeds(5)
        expected = encoder.init([ds.d_in, 64, 32, 16], init_seed)
        assert params_equal(params, expected)

    def test_layer_dims_follow_config(self):
        ds = small_dataset()
        config = TrainConfig(max_steps=1, hidden_dims=(5,), embed_dim=3)
        params, _ = train(ds, config)
        assert params.layer_dims == [ds.d_in, 5, 3]

    def test_determinism(self):
        ds = small_dataset()
        config = TrainConfig(max_steps=30, seed=9)
        a, _ = train(ds, config)
        b, _ = train(ds, config)
        assert params_equal(a, b)

    def test_seed_changes_result(self):
        ds = small_dataset()
        a, _ = train(ds, TrainConfig(max_steps=30, seed=1))
        b, _ = train(ds, TrainConfig(max_steps=30, seed=2))
        assert not params_equal(a, b)


class TestGradientAveraging:
    def test_batch_of_identical_triplets_matches_batch_size_one(self):
        # anchor-referenced window tightened around one ratio so exactly one
        # ordered triple is admissible; every batch then repeats it
        features = np.array([[0.1 * (i + 1), -0.2 * i, 0.05, 0.3] for i in range(3)])
        ds = Dataset(["r0", "r1", "r2"], [1000] * 3, [2, 4, 501], features, np.full(3, np.nan))
        scores = ds.scores()
        ratio = abs(scores[0] - scores[1]) / abs(scores[0] - scores[2])
        smp = SamplerConfig(alpha=ratio * 0.999, beta=ratio * 1.001, pair_ref="anchor")

        def run(batch_size):
            config = TrainConfig(
                max_steps=4, batch_size=batch_size, seed=3, sampler=smp,
                hidden_dims=(6,), embed_dim=3,
            )
            return train(ds, config)[0]

        one = run(1)
        eight = run(8)
        for wa, wb in zip(one.weights, eight.weights):
            np.testing.assert_allclose(wa, wb, rtol=1e-12, atol=1e-15)
        for ba, bb in zip(one.biases, eight.biases):
            np.testing.assert_allclose(ba, bb, rtol=1e-12, atol=1e-15)


def reference_batch_loss(ea, ep, en, s_a, s_n, config):
    """The batch loss on separate (B, d) anchor, positive and negative arrays."""
    dap = ea - ep
    dan = ea - en
    e_arg = config.margin_m + np.sum(dap * dap, axis=1) - np.sum(dan * dan, axis=1)
    l_e = np.maximum(e_arg, 0.0)
    act_e = (e_arg > 0.0)[:, None]
    grad_a = np.where(act_e, 2.0 * (en - ep), 0.0)
    grad_p = np.where(act_e, -2.0 * dap, 0.0)
    grad_n = np.where(act_e, 2.0 * dan, 0.0)

    l_d = np.zeros_like(l_e)
    if config.directional_enabled:
        sign = np.sign(s_n - s_a)
        norm_a = np.linalg.norm(ea, axis=1)
        norm_n = np.linalg.norm(en, axis=1)
        if config.literal_sign_form:
            arg = norm_a - norm_n + config.margin_md
            l_d = np.where(sign != 0.0, sign * np.maximum(arg, 0.0), 0.0)
        else:
            arg = config.margin_md + sign * (norm_a - norm_n)
            l_d = np.where(sign != 0.0, np.maximum(arg, 0.0), 0.0)
        unit_a = np.divide(ea, norm_a[:, None], out=np.zeros_like(ea), where=norm_a[:, None] > 0)
        unit_n = np.divide(en, norm_n[:, None], out=np.zeros_like(en), where=norm_n[:, None] > 0)
        coeff = (sign * ((sign != 0.0) & (arg > 0.0)))[:, None]
        grad_a = grad_a + coeff * unit_a
        grad_n = grad_n - coeff * unit_n
    return l_e, l_d, grad_a, grad_p, grad_n


class _PlateauSchedule:
    """Divide-on-plateau: decay when the windowed mean stalls for ``patience`` windows."""

    def __init__(self):
        self.factor = trainer.LR_DECAY_FACTOR
        self.patience = trainer.PLATEAU_PATIENCE
        self.best = None
        self.streak = 0

    def update(self, lr: float, window_mean: float) -> float:
        if self.best is None or window_mean < self.best * (1.0 - trainer.PLATEAU_MIN_REL_IMPROVEMENT):
            self.best = window_mean
            self.streak = 0
            return lr
        self.streak += 1
        if self.streak >= self.patience:
            self.streak = 0
            return lr / self.factor
        return lr


def reference_train(dataset, config):
    """The unfused per-step loop: public forward and backward (which reruns the
    forward pass), the loss on split a/p/n embeddings, a per-layer update, a
    floor check every step and a window counter that flushes on the last step."""
    init_seed, sampler_seed = derive_seeds(config.seed)
    params = encoder.init([dataset.d_in, *config.hidden_dims, config.embed_dim], init_seed)
    scores = dataset.scores()
    samp = TripletSampler(scores, dataclasses.replace(config.sampler, seed=sampler_seed))
    schedule = _PlateauSchedule()
    windows = []
    lr = config.lr_init
    totals = [0.0, 0.0, 0.0]
    win_steps = win_proposed = win_accepted = 0

    def flush(step):
        rate = win_accepted / win_proposed if win_proposed else 0.0
        means = [t / win_steps for t in totals]
        windows.append(trainer.WindowRecord(step, *means, lr, rate))
        return means[0]

    for step in range(1, config.max_steps + 1):
        if lr < trainer.LR_FLOOR:
            break
        proposed, accepted = samp.stats.proposed, samp.stats.accepted
        a_idx, p_idx, n_idx = samp.collect_indices(config.batch_size)
        win_proposed += samp.stats.proposed - proposed
        win_accepted += samp.stats.accepted - accepted

        batch = dataset.features[np.concatenate((a_idx, p_idx, n_idx))]
        emb_a, emb_p, emb_n = np.split(encoder.forward(params, batch), 3)
        le, ld, g_a, g_p, g_n = reference_batch_loss(
            emb_a, emb_p, emb_n, scores[a_idx], scores[n_idx], config.loss
        )
        mean_total = float(np.mean(le + ld))
        if not np.isfinite(mean_total):
            raise DivergenceError(step, lr)
        grads, _ = encoder.backward(params, batch, np.concatenate((g_a, g_p, g_n)))
        inv_b = 1.0 / config.batch_size
        for k in range(len(params.weights)):
            dw = grads.weights[k] * inv_b
            db = grads.biases[k] * inv_b
            if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
                raise DivergenceError(step, lr)
            params.weights[k] -= lr * dw
            params.biases[k] -= lr * db

        for i, value in enumerate((mean_total, float(np.mean(le)), float(np.mean(ld)))):
            totals[i] += value
        win_steps += 1
        if win_steps == trainer.PLATEAU_WINDOW:
            lr = schedule.update(lr, flush(step))
            totals = [0.0, 0.0, 0.0]
            win_steps = win_proposed = win_accepted = 0
    if win_steps:
        flush(step)
    return params, windows


# the window is 50 steps and any stalled window decays lr; the batch1 and batch5 runs decay
SHORT = dict(PLATEAU_WINDOW=50, PLATEAU_PATIENCE=1)


def assert_matches_reference(ds, config):
    params, log = train(ds, config)
    ref_params, ref_windows = reference_train(ds, config)
    assert params_equal(params, ref_params)
    assert log.windows == ref_windows
    return log


class TestFusedStep:
    @pytest.mark.parametrize("config, schedule", [
        (TrainConfig(max_steps=600, seed=2), {}),
        (TrainConfig(max_steps=300, seed=3, loss=LossConfig(directional_enabled=False)), SHORT),
        (TrainConfig(max_steps=300, seed=4, loss=LossConfig(literal_sign_form=True)), SHORT),
        (TrainConfig(max_steps=300, seed=5, sampler=SamplerConfig(pair_ref="anchor")), SHORT),
        (TrainConfig(max_steps=300, seed=6, batch_size=1), SHORT),
        (TrainConfig(max_steps=300, seed=7, batch_size=5, hidden_dims=(7,), embed_dim=3), SHORT),
        (TrainConfig(max_steps=150, seed=8, batch_size=128), SHORT),
    ], ids=["default", "no_directional", "literal_sign", "anchor_ref", "batch1", "batch5",
            "batch128"])
    def test_bit_identical_to_unfused_step(self, monkeypatch, config, schedule):
        set_schedule(monkeypatch, **schedule)
        ds = generate(SynthConfig(n=200, d_in=8, noise_sigma=0.05, seed=11))
        assert len(assert_matches_reference(ds, config).windows) >= 2


class TestWindowEdges:
    """The window loop against the per-step reference at its boundaries."""

    DS = generate(SynthConfig(n=60, d_in=4, noise_sigma=0.05, seed=13))

    def test_exactly_two_windows(self, monkeypatch):
        set_schedule(monkeypatch, **SHORT)
        log = assert_matches_reference(self.DS, TrainConfig(max_steps=100, seed=1))
        assert [w.step for w in log.windows] == [50, 100]

    def test_one_step(self):
        log = assert_matches_reference(self.DS, TrainConfig(max_steps=1, seed=1))
        assert [w.step for w in log.windows] == [1]

    def test_zero_lr_logs_no_window(self):
        # 0 is under the floor, so not even the first window starts
        log = assert_matches_reference(self.DS, TrainConfig(max_steps=30, lr_init=0.0, seed=1))
        assert log.windows == []

    # improvements and stalls interleave, so both stall resets matter; at 0.3
    # the threshold turns some lower window means into stalls
    @pytest.mark.parametrize("min_rel", [1e-3, 0.3])
    def test_patience_counts_stalls_in_a_row(self, monkeypatch, min_rel):
        set_schedule(monkeypatch, PLATEAU_WINDOW=10, PLATEAU_PATIENCE=3, LR_DECAY_FACTOR=3.0,
                     PLATEAU_MIN_REL_IMPROVEMENT=min_rel)
        log = assert_matches_reference(self.DS, TrainConfig(max_steps=400, lr_init=1e-2, seed=1))
        assert len({w.lr for w in log.windows}) >= 3

    def test_floor_stops_at_a_window_boundary(self, monkeypatch):
        set_schedule(monkeypatch, PLATEAU_WINDOW=10, PLATEAU_PATIENCE=1, LR_FLOOR=1e-4)
        log = assert_matches_reference(self.DS, TrainConfig(max_steps=1000, lr_init=1e-3, seed=1))
        last = log.windows[-1]
        assert last.step < 1000 and last.step % 10 == 0
        assert last.lr / trainer.LR_DECAY_FACTOR < trainer.LR_FLOOR

    # 3.0 diverges at step 5, after two decays; the others diverge at their first rate
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr_init", [3.0, 1e3, 1e10, 1e50])
    def test_divergence_matches(self, monkeypatch, lr_init):
        set_schedule(monkeypatch, PLATEAU_WINDOW=2, PLATEAU_PATIENCE=1)
        config = TrainConfig(max_steps=50, lr_init=lr_init, seed=1)
        with pytest.raises(DivergenceError) as got:
            train(self.DS, config)
        with pytest.raises(DivergenceError) as want:
            reference_train(self.DS, config)
        assert (got.value.step, got.value.lr) == (want.value.step, want.value.lr)

    def test_starvation_matches(self, monkeypatch):
        # a budget of 32 runs out in step 61, after one full window
        set_schedule(monkeypatch, **SHORT)
        config = TrainConfig(max_steps=100, seed=1, sampler=SamplerConfig(max_proposals=32))
        with pytest.raises(SamplerStarvationError) as got:
            train(self.DS, config)
        with pytest.raises(SamplerStarvationError) as want:
            reference_train(self.DS, config)
        assert str(got.value) == str(want.value)

    def test_starving_window_runs_no_step(self, monkeypatch):
        # the window's triplets are drawn before its first step, so the window
        # that starves at step 61 raises before step 51 makes a forward pass
        set_schedule(monkeypatch, **SHORT)
        forwards = []
        real_forward = encoder._forward_pass

        def forward_pass(params, x):
            forwards.append(len(x))
            return real_forward(params, x)

        monkeypatch.setattr(encoder, "_forward_pass", forward_pass)
        config = TrainConfig(max_steps=100, seed=1, sampler=SamplerConfig(max_proposals=32))
        with pytest.raises(SamplerStarvationError):
            train(self.DS, config)
        assert len(forwards) == 50


class TestSinglePassStep:
    def test_one_forward_and_one_backward_per_step(self, monkeypatch):
        # one draw for the window's 7 x 5 triplets, cut into the step batches;
        # the backward pass gets exactly the rows whose reference gradient is
        # nonzero, with those gradients
        calls, draws = [], []
        real_forward, real_backward = encoder._forward_pass, encoder._backward_pass
        real_collect = TripletSampler.collect_indices

        def collect_indices(self, k):
            draws.append(real_collect(self, k))
            return draws[-1]

        def forward_pass(params, x):
            h = real_forward(params, x)
            calls.append(("forward", x.copy(), h[-1].copy()))
            return h

        def backward_pass(params, h, grad, grads_out):
            calls.append(("backward", h[0].copy(), grad.copy()))
            return real_backward(params, h, grad, grads_out)

        monkeypatch.setattr(TripletSampler, "collect_indices", collect_indices)
        monkeypatch.setattr(encoder, "_forward_pass", forward_pass)
        monkeypatch.setattr(encoder, "_backward_pass", backward_pass)
        ds = small_dataset()
        config = TrainConfig(max_steps=7, batch_size=5, seed=3)
        _, log = train(ds, config)
        assert log.windows[-1].step == 7
        assert [call[0] for call in calls] == ["forward", "backward"] * 7
        assert [draw.shape for draw in draws] == [(3, 35)]
        batches = np.split(draws[0], 7, axis=1)
        scores = ds.scores()
        live_counts = []
        for idx, (_, x, emb), (_, back_x, back_grad) in zip(batches, calls[::2], calls[1::2]):
            np.testing.assert_array_equal(x, ds.features[idx.ravel()])
            ref = np.concatenate(reference_batch_loss(
                *np.split(emb, 3), scores[idx[0]], scores[idx[2]], config.loss)[2:])
            nonzero = np.flatnonzero(ref.any(axis=1))
            np.testing.assert_array_equal(back_x, x[nonzero])
            np.testing.assert_array_equal(back_grad, ref[nonzero])
            live_counts.append(len(nonzero))
        assert min(live_counts) < 15


class TestSchedule:
    def test_plateau_decays_by_exact_factor(self, monkeypatch):
        set_schedule(monkeypatch, LR_FLOOR=1e-30, PLATEAU_WINDOW=10, PLATEAU_PATIENCE=2)
        ds = small_dataset(n=40)
        config = TrainConfig(max_steps=200, lr_init=1e-15, seed=4)
        _, log = train(ds, config)
        lrs = [w.lr for w in log.windows]
        assert lrs[0] == 1e-15
        assert any(b < a for a, b in zip(lrs, lrs[1:]))
        for a, b in zip(lrs, lrs[1:]):
            assert b == a or b == a / 10.0

    def test_lr_non_increasing_and_steps_increasing(self, monkeypatch):
        set_schedule(monkeypatch, PLATEAU_WINDOW=20)
        ds = small_dataset(n=40)
        config = TrainConfig(max_steps=120, seed=6)
        _, log = train(ds, config)
        steps = [w.step for w in log.windows]
        lrs = [w.lr for w in log.windows]
        assert steps == sorted(set(steps))
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_floor_stops_training(self, monkeypatch):
        set_schedule(monkeypatch, LR_FLOOR=1e-16, PLATEAU_WINDOW=5, PLATEAU_PATIENCE=1)
        ds = small_dataset(n=40)
        config = TrainConfig(max_steps=10_000, lr_init=1e-15, seed=4)
        _, log = train(ds, config)
        # one decay puts lr under the floor; the loop ends long before max_steps
        assert log.windows[-1].step < 10_000


class TestLog:
    def test_window_boundaries_and_partial_flush(self, monkeypatch):
        set_schedule(monkeypatch, PLATEAU_WINDOW=10)
        ds = small_dataset()
        _, log = train(ds, TrainConfig(max_steps=35, seed=2))
        assert [w.step for w in log.windows] == [10, 20, 30, 35]
        for w in log.windows:
            assert w.mean_loss == pytest.approx(w.mean_le + w.mean_ld, rel=1e-12)
            assert 0.0 < w.acceptance_rate <= 1.0

    def test_no_directional_logs_zero_ld(self, monkeypatch):
        set_schedule(monkeypatch, PLATEAU_WINDOW=10)
        ds = small_dataset()
        config = TrainConfig(max_steps=20, seed=2, loss=LossConfig(directional_enabled=False))
        _, log = train(ds, config)
        assert all(w.mean_ld == 0.0 for w in log.windows)

    def test_csv_format(self, tmp_path):
        # the train subcommand writes the log; its plateau window is the default 500
        ds = small_dataset()
        data = tmp_path / "d.jsonl"
        save_dataset(ds, data)
        path = tmp_path / "log.csv"
        assert cli.main([
            "train", "--input", str(data), "--steps", "1200", "--batch", "8", "--seed", "2",
            "--model-out", str(tmp_path / "m.json"), "--log-out", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "step,mean_loss,mean_le,mean_ld,lr,acceptance_rate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "500"
        assert float(first[4]) == 1e-3
        _, log = train(ds, TrainConfig(max_steps=1200, batch_size=8, seed=2))
        expected = [",".join(repr(v) for v in dataclasses.astuple(w)) for w in log.windows]
        assert lines[1:] == expected


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_lr_raises(self):
        ds = small_dataset(n=20)
        config = TrainConfig(max_steps=100, lr_init=1e50, seed=1)
        with pytest.raises(DivergenceError) as exc:
            train(ds, config)
        assert exc.value.step >= 1
        assert exc.value.lr == 1e50


class TestLossDecreases:
    def test_training_reduces_windowed_loss(self, monkeypatch):
        set_schedule(monkeypatch, PLATEAU_WINDOW=200)
        ds = generate(SynthConfig(n=300, d_in=8, noise_sigma=0.05, seed=17))
        config = TrainConfig(max_steps=2000, seed=17)
        _, log = train(ds, config)
        assert log.windows[-1].mean_loss < log.windows[0].mean_loss

    def test_benchmark_regression(self, benchmark_model):
        # frozen baseline: seed 7 lands at 0.0452 / 0.2214 = 0.204
        _, log = benchmark_model
        assert log.windows[-1].mean_loss < 0.25 * log.windows[0].mean_loss
