"""Tile-engine tests: loop/batched equivalence and backend selection.

The ``"batched"`` backend must reproduce the ``"loop"`` reference to
within 1e-9 for identical seeds, across every non-ideality bundle and
for ragged (non-divisible) bank shapes — the contract that makes the
backend a pure performance knob.  Per-tile RNG streams make that
possible: each tile draws from its own spawned generator, so neither
the backend nor the tile evaluation order changes the noise.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BUNDLES, SwordfishConfig, get_bundle
from repro.crossbar import (
    ADCConfig,
    BackendResolutionError,
    CrossbarBank,
    CrossbarConfig,
    DACConfig,
    DeviceConfig,
    DriftConfig,
    ENV_BACKEND,
    VariationConfig,
    WireConfig,
    available_backends,
    iter_tile_blocks,
    resolve_backend,
    spawn_generators,
    tile_grid,
)

TOL = 1e-9


def weights_for(shape, seed=99):
    return np.random.default_rng(seed).standard_normal(shape)


def bank_pair(shape, config, seed=7, **kwargs):
    """Identically seeded banks on the two backends."""
    w = weights_for(shape)
    loop = CrossbarBank(w, config, seed, backend="loop", **kwargs)
    batched = CrossbarBank(w, config, seed, backend="batched", **kwargs)
    return loop, batched


def assert_equivalent(loop, batched, x, tol=TOL):
    ya, yb = loop.vmm(x), batched.vmm(x)
    np.testing.assert_allclose(yb, ya, rtol=0.0, atol=tol)


# ----------------------------------------------------------------------
# Geometry helpers
# ----------------------------------------------------------------------

class TestTileGeometry:
    def test_tile_grid_matches_ceil_division(self):
        assert tile_grid((64, 64), 64) == (1, 1)
        assert tile_grid((65, 64), 64) == (2, 1)
        assert tile_grid((1, 129), 64) == (1, 3)

    def test_iter_tile_blocks_covers_matrix_once(self):
        shape, size = (70, 45), 32
        seen = np.zeros(shape, dtype=int)
        for i, j, rs, cs in iter_tile_blocks(shape, size):
            assert 0 <= i < 3 and 0 <= j < 2
            seen[rs, cs] += 1
        assert (seen == 1).all()

    def test_iter_tile_blocks_row_major(self):
        order = [(i, j) for i, j, _, _ in iter_tile_blocks((70, 45), 32)]
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


class TestSpawnGenerators:
    def test_children_are_independent_and_deterministic(self):
        a = spawn_generators(np.random.SeedSequence(5), 4)
        b = spawn_generators(np.random.SeedSequence(5), 4)
        draws_a = [g.standard_normal(3) for g in a]
        draws_b = [g.standard_normal(3) for g in b]
        for da, db in zip(draws_a, draws_b):
            np.testing.assert_array_equal(da, db)
        # distinct streams
        assert not np.allclose(draws_a[0], draws_a[1])

    def test_accepts_int_and_generator(self):
        assert len(spawn_generators(3, 2)) == 2
        assert len(spawn_generators(np.random.default_rng(3), 2)) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_available(self):
        assert set(available_backends()) >= {"loop", "batched"}

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("SWORDFISH_VMM_BACKEND", "batched")
        assert resolve_backend("loop") == "loop"

    def test_env_var_applies(self, monkeypatch):
        monkeypatch.setenv("SWORDFISH_VMM_BACKEND", "loop")
        assert resolve_backend(None) == "loop"
        bank = CrossbarBank(weights_for((10, 10)), CrossbarConfig(size=8), 0)
        assert bank.backend == "loop"

    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("SWORDFISH_VMM_BACKEND", raising=False)
        assert resolve_backend(None) == "batched"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")
        with pytest.raises(ValueError):
            CrossbarConfig(size=8, backend="cuda")

    def test_config_backend_propagates(self):
        config = CrossbarConfig(size=8, backend="loop")
        bank = CrossbarBank(weights_for((10, 10)), config, 0)
        assert bank.backend == "loop"
        assert config.ideal().backend == "loop"

    def test_set_backend_switches_in_place(self):
        bank = CrossbarBank(weights_for((20, 20)), CrossbarConfig(size=8), 0,
                            backend="loop")
        x = weights_for((3, 20), seed=1)
        y_loop = bank.vmm(x)
        bank.set_backend("batched")
        assert bank.backend == "batched"
        assert bank.vmm(x).shape == y_loop.shape


class TestBackendResolution:
    def test_explicit_garbage(self):
        with pytest.raises(BackendResolutionError) as err:
            resolve_backend("vectorized")
        assert err.value.requested == "vectorized"
        assert err.value.source == "explicit configuration"
        assert err.value.available == available_backends()

    def test_env_garbage_fails_fast(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "gpu")
        with pytest.raises(BackendResolutionError) as err:
            resolve_backend()
        assert ENV_BACKEND in err.value.source
        # Still a ValueError for pre-existing call sites.
        assert isinstance(err.value, ValueError)

    def test_config_surfaces_raise_structured(self):
        with pytest.raises(BackendResolutionError):
            CrossbarConfig(backend="nope")
        with pytest.raises(BackendResolutionError):
            SwordfishConfig(vmm_backend="nope")


# ----------------------------------------------------------------------
# Loop vs batched equivalence
# ----------------------------------------------------------------------

#: One config per non-ideality family, plus kitchen-sink combinations.
EQUIV_CONFIGS = {
    "quiet": CrossbarConfig(size=16),
    "dac_only": CrossbarConfig(
        size=16, dac=DACConfig(bits=6, r_load=0.3, gain_std=0.02,
                               offset_std=0.01)),
    "adc_only": CrossbarConfig(
        size=16, adc=ADCConfig(bits=6, range_headroom=1.5, gain_std=0.02,
                               offset_std=0.01, inl=0.05)),
    "read_noise": CrossbarConfig(
        size=16, device=DeviceConfig(read_noise=0.05)),
    "stuck_cells": CrossbarConfig(
        size=16, variation=VariationConfig(0.05, 0.05, 0.03, 0.03)),
    "wires": CrossbarConfig(
        size=16, wire=WireConfig(segment_ohm=2.0, sneak_coupling=0.01)),
    "everything": CrossbarConfig(
        size=16,
        device=DeviceConfig(read_noise=0.03),
        variation=VariationConfig(0.05, 0.05, 0.01, 0.01),
        wire=WireConfig(segment_ohm=2.0, sneak_coupling=0.01),
        dac=DACConfig(bits=6, r_load=0.2, gain_std=0.02, offset_std=0.01),
        adc=ADCConfig(bits=7, range_headroom=1.8, gain_std=0.02,
                      offset_std=0.01, inl=0.03)),
}

#: Mismatch, quantization and sneak on, so the skip cases run inside a
#: full chain.
_NOISY = dict(
    device=DeviceConfig(read_noise=0.02),
    dac=DACConfig(bits=6, r_load=0.2, gain_std=0.02, offset_std=0.01),
    adc=ADCConfig(bits=7, gain_std=0.02, offset_std=0.01, inl=0.03),
    wire=WireConfig(segment_ohm=2.0, sneak_coupling=0.01),
)


def _noisy(size=16, **overrides):
    return CrossbarConfig(size=size, **{**_NOISY, **overrides})


def _clip_only(headroom):
    """An ADC that only saturates behind a mismatch-free DAC, with
    quantization, driver sag, droop and sneak coupling on."""
    return CrossbarConfig(
        size=16, adc=ADCConfig(bits=None, range_headroom=headroom),
        dac=DACConfig(bits=6, r_load=0.2),
        wire=WireConfig(segment_ohm=2.0, sneak_coupling=0.01))


#: Every stage the VMM plan can leave out: name -> ((shape, config,
#: SRAM fraction) with the stage skipped, the same with it live, and
#: plan -> whether the stage is live).
SKIP_CASES = {
    "dac_v_max": (
        ((40, 23), _noisy(), 0.0),
        ((40, 23), _noisy(dac=DACConfig(bits=6, r_load=0.2, gain_std=0.02,
                                        offset_std=0.01, v_max=2.0)), 0.0),
        lambda plan: plan.v_max is not None),
    "droop_beside_sneak": (
        ((40, 23), _noisy(wire=WireConfig(segment_ohm=0.0,
                                          sneak_coupling=0.01)), 0.0),
        ((40, 23), _noisy(), 0.0),
        lambda plan: plan.kappa is not None),
    "adc_inl_without_bits": (
        ((40, 23), _noisy(adc=ADCConfig(bits=None, inl=0.0)), 0.0),
        ((40, 23), _noisy(adc=ADCConfig(bits=None, inl=0.05)), 0.0),
        lambda plan: plan.inl > 0),
    "sram_single_row_block": (
        ((12, 40), _noisy(), 0.0),
        ((12, 40), _noisy(), 0.2),
        lambda plan: plan.sram),
    "ragged_single_column_64": (
        ((48, 64), _noisy(size=64), 0.0),
        ((48, 40), _noisy(size=64), 0.0),
        lambda plan: plan.edge is not None),
    "ragged_single_column_256": (
        ((48, 256), _noisy(size=256), 0.0),
        ((48, 192), _noisy(size=256), 0.0),
        lambda plan: plan.edge is not None),
    "adc_clip_unreachable": (
        ((40, 23), _clip_only(1e6), 0.0),
        ((40, 23), _clip_only(0.2), 0.0),
        lambda plan: plan.adc),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIV_CONFIGS))
    @pytest.mark.parametrize("shape", [(16, 16), (40, 23), (17, 50)])
    def test_single_call(self, name, shape):
        loop, batched = bank_pair(shape, EQUIV_CONFIGS[name])
        x = weights_for((4, shape[0]), seed=11)
        assert_equivalent(loop, batched, x)

    @pytest.mark.parametrize("name", sorted(EQUIV_CONFIGS))
    def test_sequential_calls_share_streams(self, name):
        """Noise draws advance identically across repeated calls."""
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS[name])
        for call in range(3):
            x = weights_for((2, 40), seed=100 + call)
            assert_equivalent(loop, batched, x)

    @pytest.mark.parametrize("bundle_name", sorted(BUNDLES))
    def test_all_bundles(self, bundle_name):
        """Every paper bundle's design point is backend-independent.
        Only the bundles whose ADC only saturates, at 10⁶ headroom,
        leave the ADC stage out."""
        config = get_bundle(bundle_name).crossbar_config(
            32, write_variation=0.10)
        loop, batched = bank_pair((70, 45), config)
        x = weights_for((4, 70), seed=21)
        assert_equivalent(loop, batched, x)
        assert batched.engine.plan().adc == (
            bundle_name not in ("ideal", "write_only"))

    def test_sram_remap_and_update(self):
        config = EQUIV_CONFIGS["everything"]
        loop, batched = bank_pair((40, 23), config)
        assert loop.assign_sram(0.1) == batched.assign_sram(0.1)
        x = weights_for((4, 40), seed=31)
        assert_equivalent(loop, batched, x)
        new_w = weights_for((40, 23), seed=41)
        loop.update_sram_weights(new_w)
        batched.update_sram_weights(new_w)
        assert_equivalent(loop, batched, x)

    def test_random_sram_placement_matches(self):
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS["stuck_cells"])
        assert (loop.assign_sram(0.2, use_knowledge=False)
                == batched.assign_sram(0.2, use_knowledge=False))
        np.testing.assert_array_equal(loop.sram_matrix(),
                                      batched.sram_matrix())

    def test_reprogram_matches(self):
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS["stuck_cells"])
        loop.reprogram()
        batched.reprogram()
        np.testing.assert_allclose(batched.effective_matrix(),
                                   loop.effective_matrix(),
                                   rtol=0.0, atol=TOL)
        assert_equivalent(loop, batched, weights_for((4, 40), seed=51))

    def test_age_matches(self):
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS["quiet"])
        drift = DriftConfig(relaxation_per_decade=0.05, diffusion=0.01)
        loop.age(3600.0, drift)
        batched.age(3600.0, drift)
        assert_equivalent(loop, batched, weights_for((4, 40), seed=61))

    def test_syncs_after_calls_keep_the_plan_current(self):
        """Reprogramming, drift and RSA after the plan and its workspaces
        exist: the plan reads the rewritten stacks in place."""
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS["everything"])
        x = weights_for((3, 40), seed=91)
        assert_equivalent(loop, batched, x)
        plan = batched.engine.plan()
        loop.reprogram()
        batched.reprogram()
        assert_equivalent(loop, batched, x)
        drift = DriftConfig(relaxation_per_decade=0.05, diffusion=0.01)
        loop.age(3600.0, drift)
        batched.age(3600.0, drift)
        assert_equivalent(loop, batched, x)
        assert loop.assign_sram(0.1) == batched.assign_sram(0.1)
        assert_equivalent(loop, batched, x)
        assert batched.engine.plan() is plan and plan.sram

    def test_evaluation_order_independent_streams(self):
        """A bank whose tiles were consumed in a different order still
        draws the same per-tile noise (SeedSequence spawning)."""
        config = EQUIV_CONFIGS["read_noise"]
        a = CrossbarBank(weights_for((40, 23)), config, 7, backend="loop")
        b = CrossbarBank(weights_for((40, 23)), config, 7, backend="loop")
        x = weights_for((2, 40), seed=71)
        expected = a.vmm(x)
        # Drain tile noise in reverse order on b, then compare the next
        # call on a fresh pair: streams must be per-tile, not shared.
        for tile in reversed(list(b._flat_tiles())):
            tile.vmm(np.zeros((1, tile.rows)))
        c = CrossbarBank(weights_for((40, 23)), config, 7, backend="loop")
        np.testing.assert_allclose(c.vmm(x), expected, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("live", [False, True],
                             ids=["skipped", "live"])
    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    def test_plan_skip_conditions(self, case, live):
        """Each stage the plan can leave out, with it left out and live."""
        *variants, probe = SKIP_CASES[case]
        shape, config, sram = variants[live]
        loop, batched = bank_pair(shape, config)
        if sram:
            assert loop.assign_sram(sram) == batched.assign_sram(sram)
        for call, batch in enumerate((1, 3, 1)):
            x = weights_for((batch, shape[0]), seed=80 + call)
            assert_equivalent(loop, batched, x)
        assert probe(batched.engine.plan()) == live

    def test_sync_brings_the_adc_clip_back(self):
        """A sync that lets column sums reach full scale puts the ADC
        stage back, and rebuilds the scratch it needs."""
        loop, batched = bank_pair((40, 23), _clip_only(5.0))
        x = weights_for((3, 40), seed=93)
        assert_equivalent(loop, batched, x)
        plan = batched.engine.plan()
        assert not plan.adc
        for bank in (loop, batched):
            for tile in bank._flat_tiles():
                tile.effective_weights = tile.effective_weights * 100.0
            bank.sync_engine()
        assert batched.engine.plan() is plan and plan.adc
        assert_equivalent(loop, batched, x)

    def test_workspaces_stay_bounded(self):
        """One workspace per bank: a new batch size or an SRAM flip
        frees the old scratch, and the rebuilt one still computes right."""
        loop, batched = bank_pair((40, 23), EQUIV_CONFIGS["everything"])
        engine = batched.engine
        built = []
        for call, batch in enumerate((1, 3, 1, 1)):
            if call == 3:
                assert loop.assign_sram(0.1) == batched.assign_sram(0.1)
                assert engine._workspace is None
            assert_equivalent(loop, batched,
                              weights_for((batch, 40), seed=call))
            assert engine._workspace.batch == max(batch, 2)
            built.append(weakref.ref(engine._workspace))
            assert [ref() is not None for ref in built].count(True) == 1

    @settings(deadline=None, max_examples=25)
    @given(
        rows=st.integers(min_value=1, max_value=70),
        cols=st.integers(min_value=1, max_value=70),
        size=st.integers(min_value=2, max_value=33),
        batch=st.integers(min_value=1, max_value=5),
    )
    def test_property_random_shapes(self, rows, cols, size, batch):
        """Equivalence holds for arbitrary (ragged) bank geometries."""
        config = CrossbarConfig(
            size=size,
            device=DeviceConfig(read_noise=0.02),
            variation=VariationConfig(0.05, 0.02, 0.01, 0.01),
            wire=WireConfig(segment_ohm=1.5, sneak_coupling=0.005),
            dac=DACConfig(bits=6, r_load=0.1, gain_std=0.01,
                          offset_std=0.01),
            adc=ADCConfig(bits=7, gain_std=0.01, offset_std=0.01,
                          inl=0.02),
        )
        loop, batched = bank_pair((rows, cols), config, seed=rows * 97 + cols)
        x = np.random.default_rng(batch).standard_normal((batch, rows))
        assert_equivalent(loop, batched, x)


# ----------------------------------------------------------------------
# Vectorized whole-matrix views
# ----------------------------------------------------------------------

class TestAssembledViews:
    def reference_effective(self, bank):
        """Pre-engine double-loop reconstruction."""
        out = np.zeros(bank.shape)
        size = bank.config.size
        for i, tile_row in enumerate(bank.tiles):
            col = 0
            for tile in tile_row:
                block = np.where(tile.sram_mask, tile.ideal_weights,
                                 tile.effective_weights)
                out[i * size:i * size + tile.rows,
                    col:col + tile.cols] = block
                col += tile.cols
        return out

    @pytest.mark.parametrize("shape", [(16, 16), (40, 23), (17, 50)])
    def test_effective_matrix_matches_reference(self, shape):
        bank = CrossbarBank(weights_for(shape),
                            EQUIV_CONFIGS["stuck_cells"], 7)
        bank.assign_sram(0.1)
        np.testing.assert_array_equal(bank.effective_matrix(),
                                      self.reference_effective(bank))

    def test_error_severity_matches_tiles(self):
        bank = CrossbarBank(weights_for((40, 23)),
                            EQUIV_CONFIGS["stuck_cells"], 7)
        severity = bank.error_severity()
        size = bank.config.size
        for i, tile_row in enumerate(bank.tiles):
            col = 0
            for tile in tile_row:
                np.testing.assert_array_equal(
                    severity[i * size:i * size + tile.rows,
                             col:col + tile.cols],
                    tile.error_severity())
                col += tile.cols

    def test_sram_matrix_tracks_assignment(self):
        bank = CrossbarBank(weights_for((40, 23)),
                            EQUIV_CONFIGS["stuck_cells"], 7)
        assert not bank.sram_matrix().any()
        moved = bank.assign_sram(0.25)
        assert bank.sram_matrix().sum() == moved

    def test_sync_engine_after_direct_mutation(self):
        bank = CrossbarBank(weights_for((40, 23)),
                            EQUIV_CONFIGS["quiet"], 7)
        bank.effective_matrix()  # force stack build
        tile = bank.tiles[0][0]
        tile.sram_mask[:] = True
        bank.sync_engine()
        assert bank.sram_matrix()[:tile.rows, :tile.cols].all()


# ----------------------------------------------------------------------
# Deployed-model end-to-end equivalence
# ----------------------------------------------------------------------

class TestDeployedEquivalence:
    def test_deployed_model_backend_independent(self, tiny_model):
        from repro.basecaller import BonitoModel
        from repro.core import deploy, get_bundle

        signal = np.random.default_rng(5).standard_normal((1, 192))
        outputs = {}
        for backend in ("loop", "batched"):
            clone = BonitoModel(tiny_model.config)
            clone.load_state_dict(tiny_model.state_dict())
            clone.eval()
            deployed = deploy(clone, get_bundle("combined"),
                              crossbar_size=32, write_variation=0.05,
                              seed=3, backend=backend)
            assert all(b.backend == backend
                       for bs in deployed.banks.values() for b in bs)
            outputs[backend] = clone(signal).data
            deployed.release()
        np.testing.assert_allclose(outputs["batched"], outputs["loop"],
                                   rtol=0.0, atol=1e-8)

    def test_set_backend_on_deployed(self, tiny_model):
        from repro.core import deploy, get_bundle

        deployed = deploy(tiny_model, get_bundle("write_only"),
                          crossbar_size=32, seed=3, backend="loop")
        deployed.set_backend("batched")
        assert all(b.backend == "batched"
                   for bs in deployed.banks.values() for b in bs)
        assert deployed.engines.keys() == deployed.banks.keys()
        deployed.release()


# ----------------------------------------------------------------------
# Bound recurrent steps
# ----------------------------------------------------------------------

def _digest(logits: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()


#: ``(bundle, crossbar size, case)``: every bundle at both sizes, then
#: forwards after RSA, reprogramming and aging, a B = 2 forward followed
#: by a B = 1 forward, a ``loop`` deployment and a traced forward.
BOUND_CASES = ([(bundle, size, "batches") for bundle in sorted(BUNDLES)
                for size in (64, 256)]
               + [("combined", 64, "mutated"), ("measured", 256, "mutated"),
                  ("combined", 64, "shrink"), ("combined", 64, "loop"),
                  ("write_only", 64, "traced")])


class TestBoundRecurrence:
    """An LSTM whose hook binds its ``hh`` bank once per forward (the
    engine's runner writing straight into the recurrence's buffer) gives
    the logits, bit for bit, of a forward whose hook has no binder and so
    calls ``bank.vmm`` per step.  The default model's two LSTMs run in
    both directions."""

    SIGNALS = np.random.default_rng(21).standard_normal((3, 64))

    @staticmethod
    def _deploy(bundle, size, backend=None):
        from repro.basecaller import BonitoConfig, BonitoModel
        from repro.core import deploy

        model = BonitoModel(BonitoConfig())
        model.eval()
        return deploy(model, get_bundle(bundle), crossbar_size=size,
                      seed=3, backend=backend)

    @staticmethod
    def _forward(deployed, signals, snapshot, bound=True):
        """Logits from the RNG epoch ``snapshot``; ``bound=False`` runs
        the hook without its binder."""
        from repro import nn

        deployed.rng_restore(snapshot)
        if not bound:
            deployed.model.set_matmul_hook(deployed._matmul,
                                           check=deployed._check)
        try:
            with nn.no_grad():
                return deployed.model(nn.Tensor(signals)).data
        finally:
            deployed.attach()

    @pytest.mark.parametrize("bundle,size,case", BOUND_CASES,
                             ids=[f"{b}@{s}-{c}" for b, s, c in BOUND_CASES])
    def test_bound_step_equals_per_call_step(self, bundle, size, case,
                                             monkeypatch):
        from repro.observability import ENV_TRACE, ENV_TRACE_FILE, get_tracer

        deployed = self._deploy(bundle, size,
                                "loop" if case == "loop" else None)
        try:
            if case == "mutated":
                deployed.assign_sram(0.05)
                deployed.reprogram()
                drift = DriftConfig(relaxation_per_decade=0.05)
                for banks in deployed.banks.values():
                    for bank in banks:
                        bank.age(3600.0, drift)
            snapshot = deployed.rng_snapshot()
            for batch in (1, 2, 3):
                signals = self.SIGNALS[:batch]
                bound = self._forward(deployed, signals, snapshot)
                per_call = self._forward(deployed, signals, snapshot,
                                         bound=False)
                assert _digest(bound) == _digest(per_call), batch

            if case == "shrink":
                # A B = 1 runner after a B = 2 one zeroes the row the
                # larger batch left behind.
                self._forward(deployed, self.SIGNALS[:2], snapshot)
                shrunk = self._forward(deployed, self.SIGNALS[:1], snapshot)
                fresh = self._deploy(bundle, size)
                first = self._forward(fresh, self.SIGNALS[:1],
                                      fresh.rng_snapshot())
                fresh.release()
                assert _digest(shrunk) == _digest(first)
            elif case == "loop":
                # The reference backend pins what the runner computes.
                batched = self._deploy(bundle, size)
                reference = self._forward(batched, self.SIGNALS,
                                          batched.rng_snapshot())
                batched.release()
                np.testing.assert_allclose(
                    bound, reference, rtol=0.0, atol=1e-8)
            elif case == "traced":
                # Traced steps go through ``bank.vmm``: one ``vmm`` span
                # per recurrent step, and the same logits.
                monkeypatch.delenv(ENV_TRACE_FILE, raising=False)
                monkeypatch.setenv(ENV_TRACE, "1")
                tracer = get_tracer()
                tracer.drain()
                traced = self._forward(deployed, self.SIGNALS[:1], snapshot)
                events = tracer.drain()
                monkeypatch.delenv(ENV_TRACE)
                untraced = self._forward(deployed, self.SIGNALS[:1],
                                         snapshot)
                assert _digest(traced) == _digest(untraced)
                frames = traced.shape[1]
                for layer in ("lstm0", "lstm1"):
                    steps = [e for e in events if e["name"] == "vmm"
                             and e["bank"] == layer and e["batch"] == 1]
                    assert len(steps) == frames, layer
        finally:
            deployed.release()


# ----------------------------------------------------------------------
# Deployment lifetime
# ----------------------------------------------------------------------

class TestDeploymentLifetime:
    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("bundle", ["combined", "measured", "write_only"])
    def test_release_frees_without_gc(self, bundle, size):
        """``release()`` plus the last reference frees every bank,
        engine, plan and workspace by reference counting alone."""
        from repro import nn
        from repro.basecaller import BonitoModel
        from repro.core import deploy, get_bundle
        from tests.conftest import TINY_CONFIG

        model = BonitoModel(TINY_CONFIG)
        model.eval()
        signals = np.random.default_rng(5).standard_normal((3, 192))
        refs = []

        def track(deployed):
            refs.append(weakref.ref(deployed))
            for banks in deployed.banks.values():
                for bank in banks:
                    engine = bank.engine
                    refs.extend(weakref.ref(obj) for obj in (
                        bank, engine, engine._plan, engine._workspace,
                        engine._runner)
                        if obj is not None)

        enabled = gc.isenabled()
        gc.disable()
        try:
            deployed = deploy(model, get_bundle(bundle),
                              crossbar_size=size, seed=3)
            with nn.no_grad():
                model(nn.Tensor(signals[:1]))
                track(deployed)
                model(nn.Tensor(signals))
                track(deployed)
                deployed.assign_sram(0.05)
                model(nn.Tensor(signals[:1]))
                track(deployed)
                deployed.reprogram()
                drift = DriftConfig(relaxation_per_decade=0.05)
                for banks in deployed.banks.values():
                    for bank in banks:
                        bank.age(3600.0, drift)
                del banks, bank
                deployed.set_backend("loop")
                model(nn.Tensor(signals[:1]))
            track(deployed)
            deployed.release()
            del deployed
            alive = [type(ref()).__name__ for ref in refs
                     if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert alive == []
        assert all(layer.matmul_hook is None
                   for _, layer in model.vmm_layers())
