"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.crossbar import (
    DeviceConfig,
    conductance_to_weight,
    weight_to_conductance,
)
from repro.genomics import (
    decode_bases,
    encode_bases,
    global_align,
    normalize_signal,
    reverse_complement,
)

arrays = st.lists(
    st.floats(min_value=-100, max_value=100,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=32,
).map(np.asarray)

base_seqs = st.lists(st.integers(0, 3), min_size=0, max_size=50).map(
    lambda xs: np.asarray(xs, dtype=np.int8)
)


class TestAutogradProperties:
    @given(arrays)
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_distribution(self, values):
        s = nn.Tensor(values).softmax(axis=-1).data
        assert np.all(s >= 0)
        assert np.isclose(s.sum(), 1.0)

    @given(arrays)
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_consistent(self, values):
        t = nn.Tensor(values)
        assert np.allclose(t.log_softmax(axis=-1).data,
                           np.log(t.softmax(axis=-1).data + 1e-300),
                           atol=1e-6)

    @given(arrays, arrays)
    @settings(max_examples=40, deadline=None)
    def test_add_commutes(self, a, b):
        size = min(len(a), len(b))
        x = nn.Tensor(a[:size])
        y = nn.Tensor(b[:size])
        assert np.allclose((x + y).data, (y + x).data)

    @given(arrays)
    @settings(max_examples=30, deadline=None)
    def test_sum_grad_is_ones(self, values):
        x = nn.Tensor(values, requires_grad=True)
        x.sum().backward()
        assert np.allclose(x.grad, 1.0)


class TestQuantizationProperties:
    @given(arrays, st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, bits):
        once = nn.quantize_symmetric(values, bits)
        twice = nn.quantize_symmetric(once, bits)
        assert np.allclose(once, twice)

    @given(arrays, st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_bounded_error(self, values, bits):
        step = nn.quantization_step(values, bits)
        q = nn.quantize_symmetric(values, bits)
        assert np.abs(q - values).max() <= step / 2 + 1e-9

    @given(arrays, st.sampled_from([4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_sign_preserved(self, values, bits):
        q = nn.quantize_symmetric(values, bits)
        # Quantization may zero small values but never flips signs.
        assert np.all(q * values >= -1e-12)


class TestGenomicsProperties:
    @given(base_seqs)
    @settings(max_examples=50, deadline=None)
    def test_revcomp_involution(self, seq):
        assert np.array_equal(reverse_complement(reverse_complement(seq)),
                              seq)

    @given(base_seqs)
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip(self, seq):
        assert np.array_equal(encode_bases(decode_bases(seq)), seq)

    @given(base_seqs)
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_perfect(self, seq):
        result = global_align(seq, seq)
        assert result.identity == 1.0
        assert result.matches == len(seq)

    @given(base_seqs, base_seqs)
    @settings(max_examples=40, deadline=None)
    def test_identity_bounds(self, a, b):
        identity = global_align(a, b).identity
        assert 0.0 <= identity <= 1.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False), min_size=4, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_normalize_signal_median_zero(self, values):
        out = normalize_signal(np.asarray(values))
        assert abs(np.median(out)) < 1e-9
        assert np.isfinite(out).all()


class TestDeviceProperties:
    @given(st.lists(st.floats(min_value=-5, max_value=5,
                              allow_nan=False), min_size=1, max_size=64),
           st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_conductance_roundtrip_bounded(self, weights, levels):
        device = DeviceConfig(nonlinearity=0.0, levels=levels)
        w = np.asarray(weights)
        w_max = max(float(np.abs(w).max()), 1e-9)
        g_pos, g_neg = weight_to_conductance(w, w_max, device)
        decoded = conductance_to_weight(g_pos, g_neg, w_max, device)
        # Error bounded by one conductance-grid step (in weight units).
        step = w_max / (levels - 1)
        assert np.abs(decoded - w).max() <= step / 2 + 1e-9
        # Physical window respected.
        for g in (g_pos, g_neg):
            assert np.all(g >= device.g_min - 1e-15)
            assert np.all(g <= device.g_max + 1e-15)
