"""Tests for the genomics substrate (genome, pore model, signal, reads)."""

import hashlib
import warnings

import numpy as np
import pytest

from repro import genomics as g


class TestGenome:
    def test_paper_registry(self):
        assert [s.name for s in g.PAPER_DATASETS] == ["D1", "D2", "D3", "D4"]
        d3 = g.get_dataset("D3")
        assert d3.reference_size == 5_134_281
        assert d3.num_reads == 11_047
        with pytest.raises(KeyError):
            g.get_dataset("D9")

    def test_genome_deterministic_and_cached(self):
        a = g.random_genome(1000, seed=5)
        b = g.random_genome(1000, seed=5)
        assert a is b  # cached
        c = g.random_genome(1000, seed=6)
        assert not np.array_equal(a, c)

    def test_gc_content_respected(self):
        genome = g.random_genome(100_000, gc_content=0.7, seed=1)
        gc = ((genome == 1) | (genome == 2)).mean()
        assert abs(gc - 0.7) < 0.02

    def test_genome_validation(self):
        with pytest.raises(ValueError):
            g.random_genome(0)
        with pytest.raises(ValueError):
            g.random_genome(10, gc_content=1.5)

    def test_encode_decode_roundtrip(self):
        seq = "ACGTACGT"
        assert g.decode_bases(g.encode_bases(seq)) == seq
        with pytest.raises(ValueError):
            g.encode_bases("ACGN")

    def test_reverse_complement(self):
        codes = g.encode_bases("AACG")
        assert g.decode_bases(g.reverse_complement(codes)) == "CGTT"
        # Involution property.
        assert np.array_equal(
            g.reverse_complement(g.reverse_complement(codes)), codes)


class TestPoreModel:
    def test_table_shape_and_determinism(self):
        pore = g.default_pore_model()
        assert pore.num_kmers == 64
        assert pore.level_mean.shape == (64,)
        pore2 = g.default_pore_model()
        assert pore is pore2  # cached

    def test_levels_realistic_range(self):
        pore = g.default_pore_model()
        assert 60 < pore.level_mean.mean() < 120
        assert pore.level_stdv.min() > 0

    def test_kmer_index(self):
        pore = g.default_pore_model(k=2, seed=1)
        idx = pore.kmer_index(np.array([0, 1, 2, 3], dtype=np.int8))
        assert list(idx) == [1, 6, 11]  # 0*4+1, 1*4+2, 2*4+3

    def test_kmer_index_too_short(self):
        pore = g.default_pore_model()
        with pytest.raises(ValueError):
            pore.kmer_index(np.array([0, 1], dtype=np.int8))

    def test_similar_kmers_correlated(self):
        """Additive structure: k-mers sharing the centre base cluster."""
        pore = g.default_pore_model()
        levels = pore.level_mean.reshape(4, 4, 4)
        # Variance explained by the centre base should dominate.
        centre_means = levels.mean(axis=(0, 2))
        between = centre_means.var()
        total = levels.var()
        assert between / total > 0.5


class TestSignal:
    def test_squiggle_length_matches_dwells(self, rng):
        bases = g.random_genome(50, seed=3)
        signal, dwells = g.simulate_squiggle(bases, rng)
        assert len(signal) == dwells.sum()
        assert len(dwells) == 50 - g.default_pore_model().k + 1

    def test_min_dwell_respected(self, rng):
        config = g.SquiggleConfig(min_dwell=3)
        bases = g.random_genome(40, seed=3)
        _, dwells = g.simulate_squiggle(bases, rng, config=config)
        assert dwells.min() >= 3

    def test_noise_scale_zero_is_clean(self, rng):
        config = g.SquiggleConfig(noise_scale=0.0, drift_sigma=0.0)
        bases = g.random_genome(30, seed=3)
        signal, dwells = g.simulate_squiggle(bases, rng, config=config)
        pore = g.default_pore_model()
        means, _ = pore.levels_for(bases)
        assert np.allclose(signal, np.repeat(means, dwells))

    def test_normalize_signal(self, rng):
        signal = rng.standard_normal(1000) * 13 + 90
        normalized = g.normalize_signal(signal)
        assert abs(np.median(normalized)) < 1e-9
        assert 0.5 < normalized.std() < 2.0

    def test_normalize_constant_signal(self):
        out = g.normalize_signal(np.full(10, 5.0))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("values", [
        [0.0, 1e-323, 2e-323, 1.0, -1.0],      # subnormal MAD
        [0.0, 0.0, 3e-308, 1e3, -1e3],         # normal MAD, still tiny
    ], ids=["subnormal-mad", "tiny-normal-mad"])
    def test_normalize_tiny_mad_does_not_overflow(self, values):
        """A MAD the largest deviation overflows against is degenerate,
        like a zero MAD: the signal is scaled as if the MAD were 1."""
        signal = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = g.normalize_signal(signal)
        assert np.isfinite(out).all()
        assert np.array_equal(out, (signal - np.median(signal)) / 1.4826)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            g.SquiggleConfig(samples_per_base=0)
        with pytest.raises(ValueError):
            g.SquiggleConfig(min_dwell=0)


class TestReads:
    def test_sample_reads_fields(self, rng):
        genome = g.random_genome(5000, seed=9)
        reads = g.sample_reads(genome, 5, rng, mean_length=100)
        assert len(reads) == 5
        for read in reads:
            assert read.num_samples == len(read.raw_signal)
            assert read.strand in (-1, 1)
            assert 0 <= read.position < len(genome)
            assert len(read.bases) >= 60

    def test_forward_read_matches_genome(self, rng):
        genome = g.random_genome(5000, seed=9)
        for read in g.sample_reads(genome, 20, rng, mean_length=100):
            if read.strand > 0:
                fragment = genome[read.position:read.position + len(read.bases)]
                assert np.array_equal(read.bases, fragment)
                break
        else:
            pytest.skip("no forward read drawn")

    def test_dataset_reads_deterministic(self):
        reads1 = g.dataset_reads("D1", num_reads=3)
        reads2 = g.dataset_reads("D1", num_reads=3)
        assert np.array_equal(reads1[0].signal, reads2[0].signal)
        reads3 = g.dataset_reads("D1", num_reads=3, seed_offset=1)
        assert not np.array_equal(reads1[0].signal, reads3[0].signal)

    def test_datasets_differ(self):
        r1 = g.dataset_reads("D1", num_reads=1)[0]
        r2 = g.dataset_reads("D2", num_reads=1)[0]
        assert not np.array_equal(r1.bases, r2.bases)

    def test_short_genome_rejected(self, rng):
        with pytest.raises(ValueError):
            g.sample_reads(g.random_genome(10, seed=1), 1, rng)


def _signal_digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestSignalDigests:
    """Generated reads are pinned bit for bit: every figure, cache entry
    and perfbench accuracy check consumes them, so a change to the
    simulator's arithmetic (e.g. the OU drift recursion) must not move
    a single sample."""

    DATASETS = {
        "D1": "632a8afb06d2b7ffec787a30ce71a18db32dfd7759ef9d7da3887cbb6ac9132d",
        "D2": "f48bd9d42c5d425694915d85f24dc4eb8c0679d270289a6ca6fb94a436d84089",
        "D3": "6ac85d8508b9e28c450df6ad9ee0f38f7ce60baf9cdecec39a7ce9e2d2a85f79",
        "D4": "a68045744e43a528ce51c54f49f70cac7312d21f21b39845b8577e13952a5f71",
    }
    LONG_READ = "00d132465a1261db7ced90f8aeb2a1983b6bec3db43857dd9e0f9c1dfd25561c"

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_dataset_reads_pinned(self, name):
        reads = g.dataset_reads(name, num_reads=3)
        arrays = [a for read in reads for a in (read.raw_signal, read.signal)]
        assert _signal_digest(arrays) == self.DATASETS[name]

    def test_long_read_pinned(self):
        genome = g.random_genome(1_200, seed=5)
        raw, _ = g.simulate_squiggle(genome, np.random.default_rng(17))
        assert len(raw) >= 5_000
        assert _signal_digest([raw]) == self.LONG_READ
