"""Tests for repro.nn layers (Linear, Conv1d, LSTM, norm, dropout)."""

import numpy as np
import pytest

from repro import nn
from .test_tensor import check_grad


class TestLinear:
    def test_shapes_and_vmm(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(nn.Tensor(rng.standard_normal((3, 6))))
        assert out.shape == (3, 4)
        assert layer.vmm_shapes() == [(6, 4)]

    def test_grad(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        x = nn.Tensor(rng.standard_normal((2, 5)))
        check_grad(lambda: (layer(x) ** 2).sum(), layer.weight, tol=1e-5)
        check_grad(lambda: (layer(x) ** 2).sum(), layer.bias, tol=1e-5)

    def test_matmul_hook_bypasses_tape(self, rng):
        layer = nn.Linear(4, 2, rng=rng)
        calls = []

        def hook(x, w, slot):
            calls.append(x.shape)
            return x @ w

        layer.matmul_hook = hook
        x = nn.Tensor(rng.standard_normal((5, 4)))
        out = layer(x)
        assert calls == [(5, 4)]
        reference = x.data @ layer.weight.data + layer.bias.data
        assert np.allclose(out.data, reference)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(nn.Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.0)


class TestConv1d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 2), (3, 1)])
    def test_output_length(self, rng, stride, padding):
        conv = nn.Conv1d(2, 3, 5, stride=stride, padding=padding, rng=rng)
        x = nn.Tensor(rng.standard_normal((1, 2, 23)))
        out = conv(x)
        assert out.shape == (1, 3, conv.output_length(23))

    def test_matches_manual_convolution(self, rng):
        conv = nn.Conv1d(1, 1, 3, rng=rng)
        conv.bias.data[:] = 0.0
        x = rng.standard_normal(8)
        out = conv(nn.Tensor(x.reshape(1, 1, 8))).data.ravel()
        kernel = conv.weight.data.ravel()
        expected = np.correlate(x, kernel, mode="valid")
        assert np.allclose(out, expected)

    def test_grad(self, rng):
        conv = nn.Conv1d(2, 2, 3, stride=2, padding=1, rng=rng)
        x = nn.Tensor(rng.standard_normal((2, 2, 9)), requires_grad=True)
        check_grad(lambda: (conv(x) ** 2).sum(), conv.weight, tol=1e-5)
        check_grad(lambda: (conv(x) ** 2).sum(), x, tol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        conv = nn.Conv1d(3, 2, 3, rng=rng)
        with pytest.raises(ValueError):
            conv(nn.Tensor(np.zeros((1, 2, 10))))

    def test_hook_equivalence(self, rng):
        conv = nn.Conv1d(2, 3, 3, stride=2, padding=1, rng=rng)
        x = nn.Tensor(rng.standard_normal((2, 2, 12)))
        exact = conv(x).data
        conv.matmul_hook = lambda a, w, slot: a @ w
        hooked = conv(x).data
        assert np.allclose(exact, hooked)


class TestLSTM:
    def test_shapes(self, rng):
        lstm = nn.LSTM(3, 5, rng=rng)
        out = lstm(nn.Tensor(rng.standard_normal((2, 7, 3))))
        assert out.shape == (2, 7, 5)
        assert lstm.vmm_shapes() == [(3, 20), (5, 20)]

    def test_reverse_flips_time(self, rng):
        x = rng.standard_normal((1, 6, 3))
        fwd = nn.LSTM(3, 4, reverse=False, rng=np.random.default_rng(0))
        rev = nn.LSTM(3, 4, reverse=True, rng=np.random.default_rng(0))
        out_fwd = fwd(nn.Tensor(x[:, ::-1].copy())).data
        out_rev = rev(nn.Tensor(x)).data
        assert np.allclose(out_fwd[:, ::-1], out_rev)

    def test_grad(self, rng):
        lstm = nn.LSTM(2, 3, rng=rng)
        x = nn.Tensor(rng.standard_normal((1, 4, 2)), requires_grad=True)
        check_grad(lambda: (lstm(x) ** 2).sum(), lstm.weight_ih, tol=1e-5)
        check_grad(lambda: (lstm(x) ** 2).sum(), lstm.weight_hh, tol=1e-5)
        check_grad(lambda: (lstm(x) ** 2).sum(), x, tol=1e-5)

    def test_deployed_matches_taped(self, rng):
        lstm = nn.LSTM(3, 4, rng=rng)
        x = rng.standard_normal((2, 5, 3))
        exact = lstm(nn.Tensor(x)).data
        lstm.matmul_hook = lambda a, w, slot: a @ w
        deployed = lstm(nn.Tensor(x)).data
        assert np.allclose(exact, deployed, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_deployed_gate_block_matches_per_gate_bitwise(self, batch,
                                                          reverse):
        """One sigmoid over the (B, 4H) gate block slices into exactly
        the i, f and o a per-gate sigmoid computes."""
        hidden = 48
        lstm = nn.LSTM(16, hidden, reverse=reverse,
                       rng=np.random.default_rng(batch))
        x = np.random.default_rng(7).standard_normal((batch, 9, 16)) * 3.0
        hook = lambda a, w, slot: a @ w
        lstm.matmul_hook = hook
        deployed = lstm(nn.Tensor(x)).data

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        x_proj = (hook(x.reshape(-1, 16), lstm.weight_ih.data, 0)
                  .reshape(batch, 9, 4 * hidden) + lstm.bias.data)
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        expected = np.empty((batch, 9, hidden))
        for t in (range(8, -1, -1) if reverse else range(9)):
            gates = x_proj[:, t, :] + hook(h, lstm.weight_hh.data, 1)
            i = sigmoid(gates[:, :hidden])
            f = sigmoid(gates[:, hidden:2 * hidden])
            g = np.tanh(gates[:, 2 * hidden:3 * hidden])
            o = sigmoid(gates[:, 3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            expected[:, t, :] = h
        assert deployed.tobytes() == expected.tobytes()

    def test_forget_bias_initialized(self, rng):
        lstm = nn.LSTM(3, 4, rng=rng)
        assert np.allclose(lstm.bias.data[4:8], 1.0)
        assert np.allclose(lstm.bias.data[:4], 0.0)


class TestBatchNormDropout:
    def test_batchnorm_normalizes(self, rng):
        bn = nn.BatchNorm1d(3)
        x = nn.Tensor(rng.standard_normal((8, 3, 20)) * 5 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 0.1
        assert abs(out.data.std() - 1.0) < 0.1

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm1d(2, momentum=1.0)
        x = nn.Tensor(rng.standard_normal((4, 2, 10)))
        bn(x)          # capture stats
        bn.eval()
        out1 = bn(x).data
        out2 = bn(nn.Tensor(x.data)).data
        assert np.allclose(out1, out2)

    def test_batchnorm_rejects_2d(self):
        with pytest.raises(ValueError):
            nn.BatchNorm1d(2)(nn.Tensor(np.zeros((3, 2))))

    def test_dropout_train_vs_eval(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = nn.Tensor(np.ones((100, 100)))
        out = drop(x)
        # Inverted dropout keeps the expectation.
        assert abs(out.data.mean() - 1.0) < 0.1
        drop.eval()
        assert np.allclose(drop(x).data, 1.0)

    def test_dropout_validates_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)


class TestContainers:
    def test_sequential(self, rng):
        seq = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(),
                            nn.Linear(8, 2, rng=rng))
        out = seq(nn.Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 2)
        assert len(list(seq)) == 3
        assert isinstance(seq[1], nn.ReLU)

    def test_named_parameters_and_state_dict(self, rng):
        seq = nn.Sequential(nn.Linear(3, 3, rng=rng))
        names = dict(seq.named_parameters())
        assert "layer0.weight" in names
        state = seq.state_dict()
        clone = nn.Sequential(nn.Linear(3, 3, rng=np.random.default_rng(9)))
        clone.load_state_dict(state)
        assert np.allclose(clone[0].weight.data, seq[0].weight.data)

    def test_load_state_dict_shape_check(self, rng):
        layer = nn.Linear(3, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.load_state_dict({"weight": np.zeros((2, 2)),
                                   "bias": np.zeros(3)})

    def test_load_state_dict_missing_key(self, rng):
        layer = nn.Linear(3, 3, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({})
