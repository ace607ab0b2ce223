"""Tests for chunked long-read basecalling."""

import numpy as np
import pytest

from repro.basecaller import basecall_chunked, basecall_signal
from repro.genomics import random_genome, read_accuracy, sample_reads


class TestChunkedBasecalling:
    def test_short_signal_delegates(self, tiny_model, rng):
        signal = rng.standard_normal(300)
        direct = basecall_signal(tiny_model, signal)
        chunked = basecall_chunked(tiny_model, signal, chunk_samples=1024)
        assert np.array_equal(direct, chunked)

    def test_long_read_similar_accuracy(self, tiny_model, rng):
        genome = random_genome(20_000, seed=5)
        reads = sample_reads(genome, 1, rng, mean_length=700,
                             min_length=600)
        read = reads[0]
        full = basecall_signal(tiny_model, read.signal)
        chunked = basecall_chunked(tiny_model, read.signal,
                                   chunk_samples=1024, overlap=128)
        acc_full = read_accuracy(full, read.bases)
        acc_chunked = read_accuracy(chunked, read.bases)
        # Stitching costs little accuracy.
        assert acc_chunked > acc_full - 0.10
        # And produces a similar-length call.
        assert abs(len(chunked) - len(full)) < 0.2 * len(full) + 20

    def test_overlap_validation(self, tiny_model):
        with pytest.raises(ValueError):
            basecall_chunked(tiny_model, np.zeros(5000),
                             chunk_samples=100, overlap=60)
