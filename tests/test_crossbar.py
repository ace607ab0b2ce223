"""Tests for the memristor crossbar substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crossbar import (
    ADCConfig,
    CrossbarBank,
    CrossbarConfig,
    CrossbarTile,
    DACConfig,
    DeviceConfig,
    SetResetProgramming,
    VariationConfig,
    WireConfig,
    WriteReadVerify,
    apply_adc,
    apply_dac,
    apply_stuck_faults,
    apply_write_variation,
    conductance_levels,
    conductance_to_weight,
    dynamic_droop,
    sample_error_prone_map,
    state_to_conductance,
    static_attenuation,
    weight_to_conductance,
)


def clean_config(size=64, **kwargs):
    """A crossbar config with every non-ideality off unless overridden."""
    defaults = dict(
        size=size,
        device=DeviceConfig(nonlinearity=0.0, levels=2 ** 16, read_noise=0.0),
        variation=VariationConfig(0.0, 0.0, 0.0, 0.0),
        wire=WireConfig(0.0, 0.0),
        dac=DACConfig(bits=None),
        adc=ADCConfig(bits=None, range_headroom=1e6),
    )
    defaults.update(kwargs)
    return CrossbarConfig(**defaults)


class TestDevice:
    def test_conductance_window(self):
        device = DeviceConfig()
        assert np.isclose(device.g_min, 1e-6)
        assert np.isclose(device.g_max, 1e-4)

    def test_state_mapping_monotone(self):
        device = DeviceConfig(nonlinearity=3.0)
        states = np.linspace(0, 1, 50)
        g = state_to_conductance(states, device)
        assert np.all(np.diff(g) > 0)
        assert np.isclose(g[0], device.g_min)
        assert np.isclose(g[-1], device.g_max)

    def test_nonlinearity_compresses_top(self):
        linear = state_to_conductance(np.array([0.5]), DeviceConfig(nonlinearity=0.0))
        bowed = state_to_conductance(np.array([0.5]), DeviceConfig(nonlinearity=5.0))
        assert bowed > linear  # exponential model saturates early

    def test_weight_roundtrip_ideal(self, rng):
        device = DeviceConfig(nonlinearity=0.0, levels=2 ** 16)
        weights = rng.standard_normal((8, 8))
        w_max = float(np.abs(weights).max())
        g_pos, g_neg = weight_to_conductance(weights, w_max, device)
        decoded = conductance_to_weight(g_pos, g_neg, w_max, device)
        assert np.abs(decoded - weights).max() < w_max * 1e-3

    def test_quantization_levels_limit_precision(self, rng):
        device = DeviceConfig(levels=4)
        weights = rng.standard_normal((16, 16))
        w_max = float(np.abs(weights).max())
        g_pos, g_neg = weight_to_conductance(weights, w_max, device)
        used = np.unique(np.concatenate([g_pos.ravel(), g_neg.ravel()]))
        assert len(used) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceConfig(hrs_ohm=1e3, lrs_ohm=1e4)
        with pytest.raises(ValueError):
            DeviceConfig(levels=1)
        with pytest.raises(ValueError):
            weight_to_conductance(np.ones((2, 2)), 0.0, DeviceConfig())

    def test_levels_grid(self):
        grid = conductance_levels(DeviceConfig(levels=8))
        assert len(grid) == 8
        assert np.all(np.diff(grid) > 0)


class TestNoise:
    def test_write_variation_statistics(self, rng):
        device = DeviceConfig()
        target = np.full((200, 200), 5e-5)
        noisy = apply_write_variation(target, 0.1, rng, device)
        rel = noisy / target - 1.0
        # Multiplicative (std=rate) + additive window component.
        assert 0.08 < rel.std() < 0.25
        assert abs(rel.mean()) < 0.02  # approximately unbiased

    def test_write_variation_monotone_in_rate(self, rng):
        device = DeviceConfig()
        target = np.full(20_000, 5e-5)
        spreads = [
            apply_write_variation(target, rate,
                                  np.random.default_rng(1), device).std()
            for rate in (0.05, 0.1, 0.25, 0.5)
        ]
        assert spreads == sorted(spreads)

    def test_write_variation_zero_rate(self, rng):
        target = np.full(10, 5e-5)
        assert np.array_equal(
            apply_write_variation(target, 0.0, rng, DeviceConfig()), target)

    def test_write_variation_clipped_to_window(self, rng):
        device = DeviceConfig()
        target = np.full(1000, device.g_max)
        noisy = apply_write_variation(target, 0.5, rng, device)
        assert noisy.max() <= device.g_max

    def test_stuck_faults(self, rng):
        device = DeviceConfig()
        g = np.full((100, 100), 5e-5)
        faulty = apply_stuck_faults(g, 0.05, 0.05, rng, device)
        lrs = (faulty == device.g_max).mean()
        hrs = (faulty == device.g_min).mean()
        assert 0.02 < lrs < 0.08 and 0.02 < hrs < 0.08

    def test_error_prone_map_knowledge(self, rng):
        severity = np.arange(64).reshape(8, 8).astype(float)
        mask = sample_error_prone_map((8, 8), 0.25, rng, severity=severity)
        assert mask.sum() == 16
        assert mask.ravel()[np.argsort(severity.ravel())[-16:]].all()

    def test_error_prone_map_random(self, rng):
        mask = sample_error_prone_map((10, 10), 0.1, rng)
        assert mask.sum() == 10

    def test_variation_config_validation(self):
        with pytest.raises(ValueError):
            VariationConfig(write_variation=-0.1)


class TestWiresConverters:
    def test_attenuation_decreases_with_distance(self):
        att = static_attenuation(64, 64, WireConfig(segment_ohm=2.0),
                                 DeviceConfig())
        assert att[0, 0] == att.max()
        assert att[-1, -1] == att.min()
        assert np.all(att > 0) and np.all(att <= 1)

    def test_larger_array_attenuates_more(self):
        wire, device = WireConfig(segment_ohm=2.0), DeviceConfig()
        small = static_attenuation(64, 64, wire, device)
        large = static_attenuation(256, 256, wire, device)
        assert large.min() < small.min()

    def test_droop_increases_with_current(self):
        wire, device = WireConfig(segment_ohm=1.0), DeviceConfig()
        small = dynamic_droop(np.array([1e-5]), 64, wire, device)
        large = dynamic_droop(np.array([1e-3]), 64, wire, device)
        assert large < small <= 1.0

    def test_dac_quantization(self, rng):
        x = rng.standard_normal((4, 16))
        out = apply_dac(x, DACConfig(bits=4))
        assert len(np.unique(np.round(out / np.abs(x).max() * 7))) <= 15

    def test_dac_ideal_passthrough(self, rng):
        x = rng.standard_normal((2, 8))
        out = apply_dac(x, DACConfig(bits=None))
        assert np.allclose(out, x)

    def test_dac_r_load_sags(self, rng):
        x = np.ones((1, 8))
        out = apply_dac(x, DACConfig(bits=None, r_load=1.0))
        assert np.all(out < x)

    def test_adc_saturates(self):
        y = np.array([[0.5, 5.0, -5.0]])
        out = apply_adc(y, ADCConfig(bits=None), full_scale=1.0)
        assert np.allclose(out, [[0.5, 1.0, -1.0]])

    def test_adc_quantization_step(self):
        y = np.linspace(-1, 1, 100)[None, :]
        out = apply_adc(y, ADCConfig(bits=4, range_headroom=1.0),
                        full_scale=1.0)
        assert len(np.unique(out)) <= 15

    def test_adc_validation(self):
        with pytest.raises(ValueError):
            apply_adc(np.ones((1, 2)), ADCConfig(), full_scale=0.0)
        with pytest.raises(ValueError):
            ADCConfig(range_headroom=0.0)


class TestProgramming:
    def test_wrv_reduces_residual(self):
        scheme = WriteReadVerify(iterations=5, convergence=0.5)
        assert scheme.residual_rate(0.2) == pytest.approx(0.2 * 0.5 ** 5)
        assert SetResetProgramming().residual_rate(0.2) == 0.2

    def test_wrv_costs_more_pulses(self):
        assert (WriteReadVerify(iterations=5).pulses_per_cell()
                > SetResetProgramming().pulses_per_cell())

    def test_wrv_partial_fraction(self, rng):
        scheme = WriteReadVerify(iterations=6, fraction=0.5)
        target = np.full((64, 64), 5e-5)
        achieved = scheme.program(target, 0.3, rng, DeviceConfig())
        rel = np.abs(achieved / target - 1.0)
        # Roughly half the cells should be tightly converged.
        assert (rel < 0.05).mean() > 0.4

    def test_wrv_validation(self):
        with pytest.raises(ValueError):
            WriteReadVerify(iterations=0)
        with pytest.raises(ValueError):
            WriteReadVerify(convergence=1.5)


class TestCrossbarTile:
    def test_ideal_tile_exact(self, rng):
        weights = rng.standard_normal((32, 24)) * 0.5
        tile = CrossbarTile(weights, clean_config(), rng)
        x = rng.standard_normal((5, 32))
        assert np.abs(tile.vmm(x) - x @ weights).max() < 1e-3

    def test_oversized_tile_rejected(self, rng):
        with pytest.raises(ValueError):
            CrossbarTile(np.zeros((65, 10)), clean_config(size=64), rng)

    def test_write_variation_perturbs(self, rng):
        weights = rng.standard_normal((32, 32))
        config = clean_config(variation=VariationConfig(write_variation=0.2))
        tile = CrossbarTile(weights, config, rng)
        assert not np.allclose(tile.effective_weights, weights)
        assert tile.error_severity().max() > 0

    def test_sram_assignment_reduces_error(self, rng):
        weights = rng.standard_normal((64, 64))
        config = clean_config(variation=VariationConfig(write_variation=0.3))
        tile = CrossbarTile(weights, config, rng)
        x = rng.standard_normal((8, 64))
        error_before = np.abs(tile.vmm(x) - x @ weights).mean()
        moved = tile.assign_sram(0.5, use_knowledge=True)
        assert moved == 2048
        error_after = np.abs(tile.vmm(x) - x @ weights).mean()
        assert error_after < error_before

    def test_sram_update(self, rng):
        weights = rng.standard_normal((16, 16))
        tile = CrossbarTile(weights, clean_config(), rng)
        tile.assign_sram(0.25, use_knowledge=False)
        new = weights + 1.0
        tile.update_sram_weights(new)
        assert np.allclose(tile.ideal_weights[tile.sram_mask],
                           new[tile.sram_mask])
        assert np.allclose(tile.ideal_weights[~tile.sram_mask],
                           weights[~tile.sram_mask])

    def test_reprogram_redraws_noise(self, rng):
        weights = rng.standard_normal((16, 16))
        config = clean_config(variation=VariationConfig(write_variation=0.2))
        tile = CrossbarTile(weights, config, rng)
        first = tile.effective_weights.copy()
        tile.reprogram()
        assert not np.allclose(first, tile.effective_weights)

    def test_input_width_check(self, rng):
        tile = CrossbarTile(np.zeros((8, 8)), clean_config(), rng)
        with pytest.raises(ValueError):
            tile.vmm(np.zeros((1, 9)))


class TestCrossbarBank:
    def test_tiling_geometry(self, rng):
        bank = CrossbarBank(rng.standard_normal((130, 70)),
                            clean_config(size=64), rng)
        assert bank.num_tiles == 3 * 2

    def test_ideal_bank_exact(self, rng):
        weights = rng.standard_normal((130, 70)) * 0.3
        bank = CrossbarBank(weights, clean_config(size=64), rng)
        x = rng.standard_normal((4, 130))
        rel = np.abs(bank.vmm(x) - x @ weights).max() / np.abs(x @ weights).max()
        assert rel < 1e-2

    def test_effective_matrix_shape(self, rng):
        weights = rng.standard_normal((100, 50))
        bank = CrossbarBank(weights, clean_config(size=64), rng)
        assert bank.effective_matrix().shape == (100, 50)

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_bank_any_shape(self, rows10, cols10):
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((rows10 * 10, cols10 * 10))
        bank = CrossbarBank(weights, clean_config(size=16), rng)
        x = rng.standard_normal((2, rows10 * 10))
        assert bank.vmm(x).shape == (2, cols10 * 10)

    def test_larger_tiles_more_error_under_wires(self, rng):
        """The paper's observation 5: bigger crossbars, bigger loss."""
        weights = rng.standard_normal((256, 256)) * 0.2
        x = rng.standard_normal((8, 256))
        wire = WireConfig(segment_ohm=3.0)
        errors = {}
        for size in (64, 256):
            config = clean_config(size=size, wire=wire)
            bank = CrossbarBank(weights, config, np.random.default_rng(1))
            errors[size] = np.abs(bank.vmm(x) - x @ weights).mean()
        assert errors[256] > errors[64]
