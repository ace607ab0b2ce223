"""Tests for the Bonito-style basecaller (model, chunking, decode, eval)."""

import numpy as np
import pytest

from repro import nn
from repro.basecaller import (
    BonitoConfig,
    BonitoModel,
    TrainConfig,
    basecall_read,
    basecall_signal,
    chunk_read,
    evaluate_accuracy,
    make_training_chunks,
    train_model,
)
from repro.genomics import dataset_reads


class TestModelStructure:
    def test_output_shape(self, rng):
        model = BonitoModel(BonitoConfig(conv_channels=(8, 16),
                                         lstm_hidden=12))
        signal = rng.standard_normal((2, 200))
        out = model(nn.Tensor(signal))
        assert out.shape == (2, model.frames_for(200), 5)

    def test_1d_input_promoted(self, rng):
        model = BonitoModel(BonitoConfig(conv_channels=(8,), lstm_hidden=8))
        out = model(nn.Tensor(rng.standard_normal(100)))
        assert out.shape[0] == 1 and out.shape[2] == 5

    def test_invalid_rank_rejected(self, rng):
        model = BonitoModel(BonitoConfig(conv_channels=(8,), lstm_hidden=8))
        with pytest.raises(ValueError):
            model(nn.Tensor(rng.standard_normal((2, 3, 4))))

    def test_vmm_layers_enumerated(self):
        model = BonitoModel(BonitoConfig())
        names = [name for name, _ in model.vmm_layers()]
        assert names == ["conv0", "conv1", "lstm0", "lstm1", "skip",
                         "decoder"]

    def test_skip_optional(self):
        model = BonitoModel(BonitoConfig(use_skip=False))
        names = [name for name, _ in model.vmm_layers()]
        assert "skip" not in names

    def test_alternating_lstm_directions(self):
        model = BonitoModel(BonitoConfig(num_lstm_layers=3))
        directions = [layer.reverse for layer in model.recurrent]
        assert directions == [True, False, True]

    def test_matmul_hook_roundtrip(self, rng):
        model = BonitoModel(BonitoConfig(conv_channels=(8,), lstm_hidden=8))
        signal = rng.standard_normal((1, 120))
        with nn.no_grad():
            exact = model(nn.Tensor(signal)).data
        seen = []
        model.set_matmul_hook(
            lambda x, w, name, slot: (seen.append(name), x @ w)[1])
        with nn.no_grad():
            hooked = model(nn.Tensor(signal)).data
        model.set_matmul_hook(None)
        assert np.allclose(exact, hooked, atol=1e-10)
        assert set(seen) == {name for name, _ in model.vmm_layers()}

    def test_cache_key_stable(self):
        a = BonitoConfig()
        b = BonitoConfig()
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != BonitoConfig(lstm_hidden=99).cache_key()


class TestChunking:
    def test_chunk_read_targets_within_window(self):
        reads = dataset_reads("D1", num_reads=2)
        for read in reads:
            chunks = chunk_read(read, 192)
            boundaries = np.concatenate(([0], np.cumsum(read.dwells)))
            for i, chunk in enumerate(chunks):
                assert len(chunk.signal) == 192
                assert len(chunk.target) >= 4
                assert np.all(chunk.target >= 0) and np.all(chunk.target <= 3)

    def test_make_training_chunks_count(self):
        chunks = make_training_chunks(num_chunks=10, chunk_samples=192,
                                      genome_size=15_000, seed=11)
        assert len(chunks) == 10
        assert all(len(c.signal) == 192 for c in chunks)

    def test_chunks_deterministic(self):
        a = make_training_chunks(num_chunks=5, genome_size=15_000, seed=42)
        b = make_training_chunks(num_chunks=5, genome_size=15_000, seed=42)
        assert np.array_equal(a[0].signal, b[0].signal)


class TestTraining:
    def test_loss_decreases(self, tiny_chunks):
        model = BonitoModel(BonitoConfig(conv_channels=(8, 16),
                                         lstm_hidden=16, seed=3))
        losses = train_model(model, tiny_chunks,
                             TrainConfig(epochs=3, lr=8e-3))
        assert losses[-1] < losses[0]
        assert not model.training  # left in eval mode

    def test_empty_chunks_rejected(self):
        model = BonitoModel(BonitoConfig(conv_channels=(8,), lstm_hidden=8))
        with pytest.raises(ValueError):
            train_model(model, [], TrainConfig(epochs=1))

    def test_weight_perturb_called_and_undone(self, tiny_chunks):
        model = BonitoModel(BonitoConfig(conv_channels=(8, 16),
                                         lstm_hidden=16, seed=3))
        param = model.decoder.weight
        events = []

        def perturb(m):
            saved = param.data.copy()
            param.data = param.data + 1000.0
            events.append("perturb")

            def undo():
                param.data = saved
                events.append("undo")

            return undo

        train_model(model, tiny_chunks[:16],
                    TrainConfig(epochs=1, batch_size=16), weight_perturb=perturb)
        assert events and events[0] == "perturb"
        assert abs(param.data).max() < 100.0  # clean weights restored


class TestDecodeAndEvaluate:
    def test_basecall_types(self, tiny_model):
        reads = dataset_reads("D1", num_reads=1)
        called = basecall_read(tiny_model, reads[0])
        assert called.dtype == np.int8
        if len(called):
            assert called.min() >= 0 and called.max() <= 3

    def test_beam_not_worse_than_greedy_on_average(self, tiny_model):
        reads = dataset_reads("D1", num_reads=3)
        greedy = evaluate_accuracy(tiny_model, reads, beam_width=0)
        beam = evaluate_accuracy(tiny_model, reads, beam_width=4)
        assert beam.mean_percent >= greedy.mean_percent - 5.0

    def test_evaluate_report_fields(self, tiny_model):
        reads = dataset_reads("D1", num_reads=3)
        report = evaluate_accuracy(tiny_model, reads)
        assert report.identities.shape == (3,)
        assert 0.0 <= report.mean_percent <= 100.0
        assert report.total_bases == report.called_lengths.sum()

    def test_evaluate_empty_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            evaluate_accuracy(tiny_model, [])

    def test_trained_model_beats_untrained_on_loss(self, tiny_model,
                                                   tiny_chunks):
        """Alignment identity has a ~50% chance floor, so compare the CTC
        loss, which is monotone in actual model quality."""
        untrained = BonitoModel(BonitoConfig(conv_channels=(8, 16),
                                             lstm_hidden=16, seed=99))

        def mean_loss(model):
            losses = []
            for chunk in tiny_chunks[:8]:
                logits = model(nn.Tensor(chunk.signal[None, :]))
                loss = nn.ctc_loss(logits.detach(),
                                   [chunk.target.astype(np.int64) + 1])
                losses.append(float(loss.data))
            return np.mean(losses)

        assert mean_loss(tiny_model) < mean_loss(untrained)
