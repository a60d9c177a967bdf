import json
import math
import tracemalloc

import numpy as np
import pytest

from aespace import encoder
from aespace.data_model import ROW_BLOCK
from aespace.errors import ConfigError, InputError, ModelFormatError, ModelVersionError
from aespace.loss import LossConfig, directional_triplet_loss


def straight_line_forward(params, x):
    """Independent re-statement of the forward arithmetic, loops only."""
    h = list(x)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * h[j]
            if k < len(params.weights) - 1:
                acc = acc if acc > 0 else 0.0
            out.append(acc)
        h = out
    return np.array(h)


class TestInit:
    def test_deterministic(self):
        a = encoder.init([4, 4], seed=77)
        b = encoder.init([4, 4], seed=77)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        params = encoder.init([6, 8, 3], seed=0)
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_weight_scale(self):
        params = encoder.init([256, 256], seed=1)
        target = math.sqrt(2.0 / 256.0)
        assert abs(params.weights[0].std() - target) / target < 0.10

    def test_shapes(self):
        params = encoder.init([5, 7, 2], seed=0)
        assert params.layer_dims == [5, 7, 2]
        assert params.weights[0].shape == (7, 5)
        assert params.weights[1].shape == (2, 7)
        assert params.d_in == 5
        assert params.d_out == 2

    @pytest.mark.parametrize("dims", [[], [4], [4, 0, 2], [4, -1]])
    def test_invalid_dims(self, dims):
        with pytest.raises(ConfigError):
            encoder.init(dims, seed=0)


class TestForward:
    def test_identity_network(self):
        params = encoder.init([3, 3], seed=0)
        params.weights[0] = np.eye(3)
        params.biases[0] = np.zeros(3)
        x = np.array([0.5, -1.5, 2.0])
        np.testing.assert_array_equal(encoder.forward(params, x), x)

    def test_zero_network(self):
        params = encoder.init([4, 6, 2], seed=0)
        for k in range(len(params.weights)):
            params.weights[k][:] = 0.0
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(encoder.forward(params, x), np.zeros(2))

    def test_zero_input_zero_bias(self):
        params = encoder.init([4, 8, 3], seed=3)
        np.testing.assert_array_equal(encoder.forward(params, np.zeros(4)), np.zeros(3))

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(10)
        params = encoder.init([3, 5, 2], seed=55)
        for _ in range(20):
            x = rng.normal(size=3)
            fast = encoder.forward(params, x)
            slow = straight_line_forward(params, x)
            np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        params = encoder.init([4, 6, 3], seed=7)
        batch = rng.normal(size=(9, 4))
        out = encoder.forward(params, batch)
        assert out.shape == (9, 3)
        # batched matmul may reduce in a different order than the matvec path
        for i in range(9):
            np.testing.assert_allclose(out[i], encoder.forward(params, batch[i]), rtol=1e-13, atol=1e-15)

    # ROW_BLOCK + 1 and 2 * ROW_BLOCK + 1 leave one row over under range(0, n, ROW_BLOCK)
    # slicing, and a 1-row piece takes the matvec path
    @pytest.mark.parametrize("n", [0, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_row_blocks_match_one_pass(self, n):
        params = encoder.init([16, 64, 32, 16], seed=7)
        x = np.random.default_rng(12).normal(size=(n, 16))
        out = encoder.forward(params, x)
        assert out.shape == (n, 16)
        np.testing.assert_array_equal(out, encoder._forward_pass(params, x)[-1])

    def test_memory_holds_one_block_of_activations(self):
        # one pass over all 50,000 rows peaks near 45 MB
        params = encoder.init([16, 64, 32, 16], seed=7)
        x = np.random.default_rng(13).normal(size=(50_000, 16))
        tracemalloc.start()
        try:
            out = encoder.forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes

    def test_shape_error(self):
        params = encoder.init([4, 2], seed=0)
        with pytest.raises(InputError):
            encoder.forward(params, np.zeros(5))


class TestBackward:
    def test_zero_grad_phi(self):
        params = encoder.init([3, 5, 2], seed=2)
        grads, grad_x = encoder.backward(params, np.ones(3), np.zeros(2))
        for g in grads.weights:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        for g in grads.biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(grad_x, np.zeros(3))

    def test_grad_phi_shape_mismatch(self):
        params = encoder.init([3, 5, 2], seed=2)
        with pytest.raises(InputError, match="grad_phi shape"):
            encoder.backward(params, np.ones(3), np.zeros(3))
        with pytest.raises(InputError, match="grad_phi shape"):
            encoder.backward(params, np.ones((4, 3)), np.zeros((3, 2)))

    def test_single_affine_layer_hand_gradient(self):
        params = encoder.init([3, 3], seed=0)
        params.weights[0] = np.eye(3)
        x = np.array([1.0, 2.0, 3.0])
        g = np.array([0.5, -1.0, 2.0])
        grads, grad_x = encoder.backward(params, x, g)
        np.testing.assert_allclose(grads.weights[0], np.outer(g, x))
        np.testing.assert_allclose(grads.biases[0], g)
        np.testing.assert_allclose(grad_x, g)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(12)
        params = encoder.init([4, 6, 3], seed=9)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(size=4)
            g = rng.normal(size=3)
            grads, _ = encoder.backward(params, x, g)
            for k in range(len(params.weights)):
                w = params.weights[k]
                for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    w[idx] += h
                    up = float(g @ encoder.forward(params, x))
                    w[idx] -= 2 * h
                    down = float(g @ encoder.forward(params, x))
                    w[idx] += h
                    num = (up - down) / (2 * h)
                    assert abs(grads.weights[k][idx] - num) <= 1e-5 * max(abs(num), 1.0)

    def test_batch_accumulates(self):
        rng = np.random.default_rng(13)
        params = encoder.init([3, 4, 2], seed=1)
        xs = rng.normal(size=(5, 3))
        gs = rng.normal(size=(5, 2))
        batch_grads, batch_gx = encoder.backward(params, xs, gs)
        acc_w = [np.zeros_like(w) for w in params.weights]
        acc_b = [np.zeros_like(b) for b in params.biases]
        for i in range(5):
            g_i, gx_i = encoder.backward(params, xs[i], gs[i])
            for k in range(len(acc_w)):
                acc_w[k] += g_i.weights[k]
                acc_b[k] += g_i.biases[k]
            np.testing.assert_allclose(batch_gx[i], gx_i, atol=1e-12)
        for k in range(len(acc_w)):
            np.testing.assert_allclose(batch_grads.weights[k], acc_w[k], atol=1e-12)
            np.testing.assert_allclose(batch_grads.biases[k], acc_b[k], atol=1e-12)


    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_zero_rows_left_out_change_no_bit(self, batch):
        # a training step backpropagates only the rows with a nonzero gradient;
        # dropping the zero rows must leave every weight and bias gradient as it
        # was. As in the loss, a triplet has no live row, its anchor and negative,
        # or all three, so a step never has exactly one (one row is a
        # matrix-vector product, which BLAS sums in another order).
        rng = np.random.default_rng(batch)
        params = encoder.init([16, 64, 32, 16], seed=batch)
        for _ in range(20):
            h = encoder._forward_pass(params, rng.normal(size=(3 * batch, 16)))
            kind = rng.choice(3, size=batch, p=[0.8, 0.05, 0.15])
            live = np.concatenate((kind > 0, kind == 2, kind > 0))
            rows = np.flatnonzero(live)
            grad = rng.normal(size=(3 * batch, 16))
            grad[~live] = 0.0
            full = encoder.EncoderParams(params.layer_dims, np.empty_like(params.flat))
            part = encoder.EncoderParams(params.layer_dims, np.empty_like(params.flat))
            encoder._backward_pass(params, h, grad, full)
            encoder._backward_pass(params, [hk[rows] for hk in h[:-1]], grad[rows], part)
            np.testing.assert_array_equal(part.flat, full.flat)


class TestCompositionGradient:
    def test_loss_through_encoder_finite_differences(self):
        # central differences on every parameter of a small net under the
        # full triplet objective
        rng = np.random.default_rng(14)
        config = LossConfig()
        h = 1e-6
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 200:
            attempts += 1
            params = encoder.init([4, 5, 3], seed=int(rng.integers(1 << 31)))
            xa, xp, xn = rng.normal(size=(3, 4))
            s_a, s_n = rng.uniform(size=2)

            def objective():
                res = directional_triplet_loss(
                    encoder.forward(params, xa),
                    encoder.forward(params, xp),
                    encoder.forward(params, xn),
                    s_a,
                    s_n,
                    config,
                )
                return res.total

            res = directional_triplet_loss(
                encoder.forward(params, xa),
                encoder.forward(params, xp),
                encoder.forward(params, xn),
                s_a,
                s_n,
                config,
            )
            ga, _ = encoder.backward(params, xa, res.grad_a)
            gp, _ = encoder.backward(params, xp, res.grad_p)
            gn, _ = encoder.backward(params, xn, res.grad_n)

            ok = True
            for k in range(len(params.weights)):
                exact = ga.weights[k] + gp.weights[k] + gn.weights[k]
                numeric = np.zeros_like(exact)
                w = params.weights[k]
                for i in range(w.shape[0]):
                    for j in range(w.shape[1]):
                        w[i, j] += h
                        up = objective()
                        w[i, j] -= 2 * h
                        down = objective()
                        w[i, j] += h
                        numeric[i, j] = (up - down) / (2 * h)
                denom = max(np.linalg.norm(numeric), 1.0)
                if np.linalg.norm(exact - numeric) / denom >= 1e-4:
                    ok = False
            if ok:
                checked += 1
        assert checked == 10


class TestParameterBuffer:
    @pytest.mark.parametrize("source", ["init", "load", "backward"])
    def test_layers_are_views_of_flat(self, tmp_path, source):
        params = encoder.init([3, 5, 2], seed=11)
        if source == "load":
            encoder.save(params, tmp_path / "m.json")
            params = encoder.load(tmp_path / "m.json")
        elif source == "backward":
            params, _ = encoder.backward(params, np.ones(3), np.ones(2))
        assert params.flat.dtype == np.float64
        arrays = (*params.weights, *params.biases)
        assert all(np.shares_memory(a, params.flat) for a in arrays)
        # every weight row-major, then every bias
        np.testing.assert_array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
        x = np.array([0.5, -1.0, 2.0])
        params.flat[:] = 0.0
        np.testing.assert_array_equal(encoder.forward(params, x), [0.0, 0.0])
        params.flat[-2:] = [1.5, -2.0]  # the last layer's biases
        np.testing.assert_array_equal(encoder.forward(params, x), [1.5, -2.0])

    def test_init_draws_layer_by_layer(self):
        params = encoder.init([3, 5, 2], seed=11)
        rng = np.random.default_rng(11)
        for w in params.weights:
            np.testing.assert_array_equal(w, rng.normal(0.0, math.sqrt(2.0 / w.shape[1]), size=w.shape))

    def test_save_load_reproduces_flat(self, tmp_path):
        params = encoder.init([4, 6, 3], seed=31)
        params.flat[-3:] = [0.1, -2.5e-300, 7.0]
        encoder.save(params, tmp_path / "m.json")
        np.testing.assert_array_equal(encoder.load(tmp_path / "m.json").flat, params.flat)

    @pytest.mark.parametrize("size", [8, 10])
    def test_buffer_of_wrong_size_rejected(self, size):
        with pytest.raises(ValueError):
            encoder.EncoderParams([2, 3], np.zeros(size))


class TestSaveLoad:
    def test_round_trip_exact(self, tmp_path):
        params = encoder.init([4, 6, 3], seed=31)
        path = tmp_path / "m.json"
        encoder.save(params, path)
        loaded = encoder.load(path)
        assert loaded.layer_dims == params.layer_dims
        for wa, wb in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(params.biases, loaded.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_file_layout(self, tmp_path):
        params = encoder.init([2, 3], seed=0)
        path = tmp_path / "m.json"
        encoder.save(params, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["layer_dims"] == [2, 3]
        assert len(payload["weights"][0]) == 6

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "layer_dims"')
        with pytest.raises(ModelFormatError):
            encoder.load(path)

    def test_nesting_too_deep(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "layer_dims": ' + "[" * 100_000)
        with pytest.raises(ModelFormatError, match="unreadable model file"):
            encoder.load(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"layer_dims": [2, 2], "weights": [[1,0,0,1]], "biases": [[0,0]]}')
        with pytest.raises(ModelFormatError):
            encoder.load(path)

    def test_newer_version_rejected(self, tmp_path):
        params = encoder.init([2, 2], seed=0)
        path = tmp_path / "m.json"
        encoder.save(params, path)
        payload = json.loads(path.read_text())
        payload["version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelVersionError):
            encoder.load(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_version_must_be_the_integer_one(self, tmp_path, version):
        # true == 1 and 1.0 == 1 in Python, so an equality check alone loads them
        path = tmp_path / "m.json"
        encoder.save(encoder.init([2, 2], seed=0), path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelVersionError):
            encoder.load(path)

    def test_malformed_shapes(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "layer_dims": [2, 2], "weights": [[1.0]], "biases": [[0,0]]}')
        with pytest.raises(ModelFormatError):
            encoder.load(path)

    @pytest.mark.parametrize("dims, weights, biases", [
        ([3], [], []),  # no layer: would load as the identity map
        ([3.9, 2], [[0.0] * 6], [[0.0, 0.0]]),  # would be truncated to 3
        ([-1, 2], [[0.0] * 6], [[0.0, 0.0]]),  # reshape(2, -1) would infer the width
        ([True, 2], [[0.0, 0.0]], [[0.0, 0.0]]),  # a bool is not an int
        ("32", [[0.0] * 6], [[0.0, 0.0]]),
    ], ids=["one_dim", "float_dim", "negative_dim", "bool_dim", "string"])
    def test_layer_dims_must_be_positive_ints(self, tmp_path, dims, weights, biases):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"version": 1, "layer_dims": dims, "weights": weights, "biases": biases}))
        with pytest.raises(ModelFormatError, match="layer_dims must be a list"):
            encoder.load(path)

    @pytest.mark.parametrize("weights, biases", [
        # a 2x3 matrix where the format wants a flat list of 6: was re-cut as 3x2
        ([[[1, 2, 3], [4, 5, 6]]], [[0, 0, 0]]),
        # a second weight entry for a one-layer model: was dropped
        ([[1, 2, 3, 4, 5, 6], [7, 8]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], [[0, 0, 0], [0, 0, 0]]),
        ([], []),
        ({"0": [1, 2, 3, 4, 5, 6]}, [[0, 0, 0]]),
        (None, [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], [[[0, 0, 0]]]),
        ([[1, 2, 3, 4, 5]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6, 7]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], [[0, 0]]),
        # JSON strings and booleans are not numbers: "1" and true loaded as 1.0
        ([["1", 2, 3, 4, 5, 6]], [[0, 0, 0]]),
        ([[True, 2, 3, 4, 5, 6]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], [[0, False, 0]]),
        ([[None, 2, 3, 4, 5, 6]], [[0, 0, 0]]),
        ([[1, 2, 3, 4, 5, 6]], "000"),
    ], ids=["nested_matrix", "extra_weights", "extra_biases", "no_layers", "dict", "null",
            "nested_bias", "short", "long", "short_bias", "string", "bool_weight", "bool_bias",
            "null_weight", "string_biases"])
    def test_weights_must_be_flat_number_lists(self, tmp_path, weights, biases):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"version": 1, "layer_dims": [2, 3], "weights": weights, "biases": biases}))
        with pytest.raises(ModelFormatError, match=f"model file {path}"):
            encoder.load(path)

    def test_int_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "layer_dims": [1, 1], "weights": [[1%s]], "biases": [[0]]}'
                        % ("0" * 400))
        with pytest.raises(ModelFormatError, match="too large"):
            encoder.load(path)

    def test_ints_load_as_floats(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "layer_dims": [2, 3], '
                        '"weights": [[1, 2, 3, 4, 5, 6]], "biases": [[0, 0.5, -1]]}')
        params = encoder.load(path)
        np.testing.assert_array_equal(params.weights[0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(params.biases[0], [0.0, 0.5, -1.0])
        assert params.weights[0].dtype == params.biases[0].dtype == np.float64

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["weights", "biases"])
    def test_non_finite_rejected(self, tmp_path, part, value):
        params = encoder.init([2, 3, 2], seed=0)
        path = tmp_path / "m.json"
        encoder.save(params, path)
        payload = json.loads(path.read_text())
        payload[part][1][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            encoder.load(path)
