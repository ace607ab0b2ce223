"""Batch-composition invariance: stacking never changes a row's result.

Per-sample DAC scaling normalizes every batch row against its **own**
magnitude, and per-call mismatch draws depend only on the call count —
so a signal's VMM (and its basecall) must be bitwise-identical whether
it runs alone or stacked with arbitrary other signals.  This file pins
that contract at three layers:

* **BLAS platform probe** — the batched kernel pads single-row calls up
  to ``engine._MIN_KERNEL_BATCH`` because one-row matmuls may take a
  gemv code path whose accumulation order differs from gemm at the last
  ulp.  The probe asserts the property the padding relies on: within
  the gemm regime (two or more rows), each row's product is
  bitwise-independent of the batch size and of the other rows' content.
  It also asserts that a gemm broadcasting one DAC output over
  side-by-side tiles equals each tile's own gemm.
* **Raw engine path** — ``CrossbarBank.vmm`` row equality across batch
  compositions, on both backends, with tile RNG states restored between
  calls (hypothesis-driven compositions).
* **Serve path** — ``BasecallEngine.basecall_batch`` returns, for every
  read, exactly what ``basecall`` returns for that read alone
  (hypothesis-driven stackmates).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basecaller import BonitoConfig, BonitoModel
from repro.crossbar import (
    ADCConfig,
    CrossbarBank,
    CrossbarConfig,
    DACConfig,
    DeviceConfig,
    VariationConfig,
    WireConfig,
    apply_dac,
    iter_tile_blocks,
)
from repro.crossbar.engine import _MIN_KERNEL_BATCH
from repro.serve import BasecallEngine, EngineConfig

#: A bank config exercising the full DAC -> noise -> droop -> ADC chain.
NOISY_CONFIG = CrossbarConfig(
    size=32,
    device=DeviceConfig(read_noise=0.02),
    variation=VariationConfig(0.05, 0.02, 0.01, 0.01),
    wire=WireConfig(segment_ohm=1.5, sneak_coupling=0.005),
    dac=DACConfig(bits=6, r_load=0.1, gain_std=0.01, offset_std=0.01),
    adc=ADCConfig(bits=7, gain_std=0.01, offset_std=0.01, inl=0.02),
)


def rng_states(bank):
    return [tile._rng.bit_generator.state for tile in bank._flat_tiles()]


def rng_restore(bank, states):
    for tile, state in zip(bank._flat_tiles(), states):
        tile._rng.bit_generator.state = state


# ----------------------------------------------------------------------
# BLAS platform probe
# ----------------------------------------------------------------------

class TestBlasPlatformProbe:
    """The numerical assumptions behind ``engine._MIN_KERNEL_BATCH``."""

    # Representative kernel shapes: full tile, partial-block LSTM bank,
    # and the widest stacked operand a 64-tile grid row produces.
    SHAPES = [(64, 64), (48, 192), (64, 320)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gemm_rows_are_content_independent(self, shape):
        """Row i of ``X @ W`` (B >= 2) never depends on rows != i."""
        rows, cols = shape
        rng = np.random.default_rng(rows * 1000 + cols)
        w = rng.standard_normal((rows, cols))
        x0 = rng.standard_normal(rows)
        reference = None
        for batch in range(_MIN_KERNEL_BATCH, 9):
            for fill_seed in range(3):
                others = np.random.default_rng(fill_seed).standard_normal(
                    (batch - 1, rows)) * 10.0 ** fill_seed
                stacked = np.vstack([x0[None, :], others])
                row = (stacked @ w)[0]
                if reference is None:
                    reference = row
                assert np.array_equal(row, reference), (
                    f"gemm row varies with batch composition at {shape}: "
                    f"batch={batch} fill_seed={fill_seed}")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_padding_hides_any_gemv_gemm_gap(self, shape):
        """Whether or not this platform's gemv matches its gemm, the
        padded batched kernel must make B=1 equal any stacked row."""
        rows, cols = shape
        rng = np.random.default_rng(7)
        w = rng.standard_normal((rows, cols))
        x0 = rng.standard_normal(rows)
        padded = np.vstack([x0[None, :],
                            np.zeros((_MIN_KERNEL_BATCH - 1, rows))])
        gemm_row = (padded @ w)[0]
        stacked = np.vstack([x0[None, :], rng.standard_normal((3, rows))])
        assert np.array_equal((stacked @ w)[0], gemm_row)

    #: Bank shapes of the default model.
    DEFAULT_SHAPES = sorted({shape for _, layer in
                             BonitoModel(BonitoConfig()).vmm_layers()
                             for shape in layer.vmm_shapes()})

    @pytest.mark.parametrize("batch", [2, 3, 400])
    @pytest.mark.parametrize("size", [64, 256])
    def test_broadcast_gemm_over_side_by_side_tiles(self, size, batch):
        """A bank that fits one row block runs its DAC once and
        broadcasts the ``(1, batch, size)`` voltages over its
        side-by-side tiles; each tile's product must equal a gemm of
        that tile alone, bit for bit."""
        rng = np.random.default_rng(size + batch)
        for shape in self.DEFAULT_SHAPES:
            blocks = [(rs.stop - rs.start, cs.stop - cs.start)
                      for i, _, rs, cs in iter_tile_blocks(shape, size)
                      if i == 0]
            rows = blocks[0][0]
            v = np.zeros((1, batch, size))
            v[0, :, :rows] = rng.standard_normal((batch, rows))
            w = np.zeros((len(blocks), size, size))
            for t, (r, c) in enumerate(blocks):
                w[t, :r, :c] = rng.standard_normal((r, c))
            out = np.empty((len(blocks), batch, size))
            np.matmul(v, w, out=out)
            for t in range(len(blocks)):
                assert out[t].tobytes() == (v[0] @ w[t]).tobytes(), (
                    f"broadcast gemm differs for tile {t} of bank "
                    f"{shape} at size {size}, batch {batch}")


# ----------------------------------------------------------------------
# Per-sample DAC scale semantics
# ----------------------------------------------------------------------

class TestPerSampleScale:
    def test_each_row_quantized_against_its_own_magnitude(self):
        """A tiny row keeps its DAC resolution next to a huge row."""
        config = DACConfig(bits=6)
        tiny = np.linspace(-1e-3, 1e-3, 16)
        huge = np.linspace(-1e3, 1e3, 16)
        stacked = apply_dac(np.stack([tiny, huge]), config)
        solo = apply_dac(tiny[None, :], config)
        assert np.array_equal(stacked[0], solo[0])
        # Under the old batch-max scale, the tiny row would quantize to
        # all-zero voltages; per-sample scale must preserve its shape.
        assert np.any(stacked[0] != 0.0)

    def test_scale_floor_keeps_zero_rows_finite(self):
        out = apply_dac(np.zeros((2, 8)), DACConfig(bits=6, r_load=0.1))
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, np.zeros((2, 8)))


# ----------------------------------------------------------------------
# Raw engine path
# ----------------------------------------------------------------------

class TestEngineComposition:
    @pytest.fixture(scope="class")
    def banks(self):
        w = np.random.default_rng(99).standard_normal((70, 50))
        return {backend: CrossbarBank(w, NOISY_CONFIG, 7, backend=backend)
                for backend in ("loop", "batched")}

    @pytest.mark.parametrize("backend", ["loop", "batched"])
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_vmm_row_independent_of_batch(self, banks, backend, data):
        bank = banks[backend]
        epoch = rng_states(bank)
        x0 = np.random.default_rng(
            data.draw(st.integers(0, 2 ** 16), label="signal_seed")
        ).standard_normal(70)
        extra = data.draw(st.integers(0, 6), label="extra_rows")
        position = data.draw(st.integers(0, extra), label="position")
        magnitude = 10.0 ** data.draw(st.integers(-3, 3), label="magnitude")

        rng_restore(bank, epoch)
        solo = bank.vmm(x0[None, :])[0]

        others = np.random.default_rng(extra + 1).standard_normal(
            (extra, 70)) * magnitude
        stacked = np.insert(others, position, x0, axis=0)
        rng_restore(bank, epoch)
        row = bank.vmm(stacked)[position]
        assert np.array_equal(row, solo)


# ----------------------------------------------------------------------
# Serve path
# ----------------------------------------------------------------------

class TestServeComposition:
    @pytest.fixture(scope="class")
    def engine(self, tiny_trained):
        return BasecallEngine(tiny_trained,
                              EngineConfig(bundle="combined", seed=3))

    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_stacked_read_matches_solo(self, engine, data):
        samples = 64
        mk = lambda seed: np.random.default_rng(seed).standard_normal(samples)
        signal = mk(data.draw(st.integers(0, 2 ** 16), label="read_seed"))
        extra = data.draw(st.integers(0, 3), label="stackmates")
        position = data.draw(st.integers(0, extra), label="position")
        stackmates = [mk(1000 + k) for k in range(extra)]
        batch = stackmates[:position] + [signal] + stackmates[position:]

        solo = engine.basecall(signal)
        outcomes = engine.basecall_batch(batch)
        assert not any(isinstance(o, Exception) for o in outcomes)
        stacked = outcomes[position]
        assert stacked.bases == solo.bases
        assert stacked.frames == solo.frames

    def test_mixed_lengths_group_correctly(self, engine):
        """Unequal-length reads form separate stacks, same results."""
        short = np.random.default_rng(1).standard_normal(64)
        long = np.random.default_rng(2).standard_normal(96)
        solo_short = engine.basecall(short)
        solo_long = engine.basecall(long)
        outcomes = engine.basecall_batch([long, short, long, short])
        assert [o.bases for o in outcomes] == [
            solo_long.bases, solo_short.bases,
            solo_long.bases, solo_short.bases]

    def test_invalid_read_isolated(self, engine):
        """A bad signal yields its own error entry, not a group failure."""
        good = np.random.default_rng(5).standard_normal(64)
        solo = engine.basecall(good)
        outcomes = engine.basecall_batch(
            [good, np.empty(0), np.zeros((2, 2))])
        assert outcomes[0].bases == solo.bases
        assert isinstance(outcomes[1], ValueError)
        assert isinstance(outcomes[2], ValueError)
