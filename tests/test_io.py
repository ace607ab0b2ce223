"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro import nn
from repro.basecaller import BonitoConfig, BonitoModel
from tests.conftest import TINY_CONFIG


class TestCheckpoint:
    def test_roundtrip_with_metadata(self, tmp_path):
        model = BonitoModel(TINY_CONFIG)
        path = nn.save_checkpoint(model, tmp_path / "m.npz",
                                  metadata={"note": "hello", "epoch": 3})
        clone = BonitoModel(TINY_CONFIG)
        meta = nn.load_checkpoint(clone, path)
        assert meta == {"note": "hello", "epoch": 3}
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      clone.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_strict_load_rejects_missing(self, tmp_path):
        model = BonitoModel(TINY_CONFIG)
        path = nn.save_checkpoint(model, tmp_path / "m.npz")
        other = BonitoModel(BonitoConfig(conv_channels=(8, 16),
                                         lstm_hidden=16,
                                         num_lstm_layers=3, seed=7))
        with pytest.raises((KeyError, ValueError)):
            nn.load_checkpoint(other, path)

    def test_buffers_roundtrip(self, tmp_path):
        bn = nn.BatchNorm1d(4)
        bn(nn.Tensor(np.random.default_rng(0).standard_normal((2, 4, 6))))
        path = nn.save_checkpoint(bn, tmp_path / "bn.npz")
        clone = nn.BatchNorm1d(4)
        nn.load_checkpoint(clone, path)
        assert np.allclose(clone.running_mean, bn.running_mean)
        assert np.allclose(clone.running_var, bn.running_var)
