"""VMM Model Generator (Swordfish module ②) and deployed inference.

Turns a trained basecaller into a *deployed* model whose every VMM runs
through non-ideal crossbar banks:

* **Analytical mode** (Section 3.3's second approach): each layer's
  weight matrices are programmed into :class:`CrossbarBank` tiles built
  from one :class:`NonidealityBundle` configuration — the chain of
  Fig. 4 (non-ideal DAC → perturbed conductance matrix → non-ideal
  ADC).
* **Library mode** (first approach): identical machinery, but each tile
  draws its own jittered parameter set, reproducing the tile-to-tile
  spread of a measured-chip library; the per-tile error maps are then
  *known*, which knowledge-based RSA placement exploits.

:class:`DeployedModel` owns the banks and installs the matmul hook on
the network, so ``model(signal)`` transparently computes the non-ideal
forward pass used for accuracy evaluation.

Batching contract
-----------------
Every VMM normalizes each batch row to its **own** magnitude (the
per-sample DAC scale) and draws per-call mismatch from tile-owned RNG
streams whose consumption never depends on the batch size.  Two
consequences the layers above rely on:

* **Composition invariance** — a signal's forward output is
  bitwise-identical whether it runs alone or stacked with any other
  signals (``decode.basecall_signals``, chunk stacking, and
  ``repro.serve`` request stacking are therefore result-neutral).
* **Timestep stacking** — recurrent layers push the input projection
  of *all* timesteps through the bank as one VMM call; only the true
  recurrence pays a per-timestep call (see
  ``nn.layers.LSTM._forward_deployed``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from ..basecaller import BonitoModel
from ..crossbar import (
    CrossbarBank,
    CrossbarConfig,
    DeviceConfig,
    ProgrammingScheme,
    VariationConfig,
    WriteReadVerify,
)
from ..observability import tracing_enabled
from ..reliability import HealthMonitor, default_monitor
from .nonidealities import NonidealityBundle
from .partition import NetworkMapping, partition_network

__all__ = ["DeployedModel", "deploy"]


def _jittered(config: CrossbarConfig, jitter: float,
              rng: np.random.Generator) -> CrossbarConfig:
    """Per-tile manufacturing spread of the non-ideality magnitudes."""

    def scale(value: float) -> float:
        if value <= 0:
            return value
        return float(value * rng.lognormal(0.0, jitter))

    variation = VariationConfig(
        write_variation=scale(config.variation.write_variation),
        device_variation=scale(config.variation.device_variation),
        stuck_lrs=min(scale(config.variation.stuck_lrs), 1.0),
        stuck_hrs=min(scale(config.variation.stuck_hrs), 1.0),
    )
    device = DeviceConfig(
        hrs_ohm=config.device.hrs_ohm,
        lrs_ohm=config.device.lrs_ohm,
        nonlinearity=scale(config.device.nonlinearity),
        levels=config.device.levels,
        read_noise=scale(config.device.read_noise),
    )
    return replace(config, variation=variation, device=device)


class DeployedModel:
    """A basecaller whose VMMs execute on non-ideal crossbar banks.

    Parameters
    ----------
    model:
        Trained (and typically already weight-quantized) basecaller.
        The instance is mutated: its matmul hook is installed.  Call
        :meth:`release` to restore exact inference.
    bundle:
        Which non-idealities are active.
    crossbar_size, write_variation:
        Design point under study.
    programming:
        Optional programming scheme (R-V-W mitigation plugs in here).
    seed:
        Seed for all programming-time and per-call noise.
    backend:
        VMM execution backend for every bank (``"loop"`` /
        ``"batched"``); ``None`` defers to the crossbar config and the
        ``SWORDFISH_VMM_BACKEND`` environment variable.  Results are
        backend-independent (per-tile RNG streams).
    """

    def __init__(self, model: BonitoModel, bundle: NonidealityBundle,
                 crossbar_size: int = 64, write_variation: float = 0.10,
                 programming: ProgrammingScheme | None = None,
                 seed: int = 0, backend: str | None = None,
                 health: HealthMonitor | None = None):
        self.model = model
        # Numeric guard over every VMM output: a NaN/Inf produced by
        # extreme non-ideality settings raises a structured
        # DivergenceError instead of decaying into a garbage accuracy
        # row.  SWORDFISH_HEALTH=off disables (health stays None).
        self.health = health if health is not None else default_monitor()
        # Serializes forwards when one deployed instance is shared by
        # several threads: per-call noise draws advance each tile's RNG
        # and the tile engine reuses per-bank scratch buffers, so
        # unsynchronized concurrent forwards would interleave both.
        # Workers that want parallelism deploy one instance each (same
        # seed => identical banks) instead of sharing the lock.
        self.lock = threading.RLock()
        self.bundle = bundle
        self.crossbar_size = crossbar_size
        self.write_variation = write_variation
        self.programming = programming
        self.mapping: NetworkMapping = partition_network(model, crossbar_size)
        self._rng = np.random.default_rng(seed)

        base_config = bundle.crossbar_config(crossbar_size, write_variation)
        self.banks: dict[str, list[CrossbarBank]] = {}
        for name, layer in model.vmm_layers():
            weights = self._layer_weights(layer)
            banks = []
            for w in weights:
                config = base_config
                if bundle.library_mode and bundle.calibration.measured_jitter > 0:
                    config = _jittered(base_config,
                                       bundle.calibration.measured_jitter,
                                       self._rng)
                banks.append(CrossbarBank(w, config, self._rng,
                                          programming=programming,
                                          name=name, backend=backend))
            self.banks[name] = banks
        self.attach()

    @staticmethod
    def _layer_weights(layer) -> list[np.ndarray]:
        """Weight matrices of a VMM layer, in hook call order."""
        if hasattr(layer, "weight_hh"):          # LSTM
            return [layer.weight_ih.data, layer.weight_hh.data]
        return [layer.weight.data]

    # ------------------------------------------------------------------
    # The matmul hook
    # ------------------------------------------------------------------
    def _bank(self, weights: np.ndarray, layer_name: str,
              slot: int) -> CrossbarBank:
        bank = self.banks[layer_name][slot]
        if bank.shape != weights.shape:
            raise RuntimeError(
                f"bank/weight shape mismatch in {layer_name}[{slot}]: "
                f"{bank.shape} vs {weights.shape}"
            )
        return bank

    def _matmul(self, inputs: np.ndarray, weights: np.ndarray,
                layer_name: str, slot: int) -> np.ndarray:
        return self._bank(weights, layer_name, slot).vmm(inputs)

    def _bind(self, weights: np.ndarray, layer_name: str, slot: int,
              batch: int):
        """A recurrence's step ``step(inputs, out)`` over ``batch`` rows.

        Bound once per forward, so the bank lookup and the shape check
        happen once, not per timestep.  An untraced step on a
        ``batched`` bank runs the engine's runner straight into
        ``out``; a traced step, and every step of a ``loop`` bank, goes
        through ``bank.vmm`` as a per-call VMM would, so its ``vmm``
        span, its metrics and any wrapper of ``bank.vmm`` see it.  The
        trace switch is read per step.  Steps are not checked: the
        layer checks its stacked recurrent outputs once per forward.
        """
        bank = self._bank(weights, layer_name, slot)
        engine = bank.engine
        runner = engine.runner(batch) if engine.backend == "batched" else None

        def step(inputs: np.ndarray, out: np.ndarray) -> None:
            if runner is None or tracing_enabled():
                out[...] = bank.vmm(inputs)
            else:
                runner(inputs, out)
        return step

    def _check(self, outputs: np.ndarray, layer_name: str,
               slot: int) -> None:
        """The numeric guard over VMM outputs: every call's, and each
        LSTM's recurrent outputs once per forward, stacked."""
        if self.health is not None:
            self.health.check_array(f"vmm:{layer_name}[{slot}]", outputs)

    def attach(self) -> None:
        """Install the crossbar hook, its recurrent binder and its output
        check on the model (at construction, and again after retraining
        with exact matmuls)."""
        self.model.set_matmul_hook(self._matmul, check=self._check,
                                   bind=self._bind)

    # ------------------------------------------------------------------
    # Mitigation integration
    # ------------------------------------------------------------------
    def assign_sram(self, fraction: float,
                    use_knowledge: bool | None = None) -> int:
        """RSA: remap the worst ``fraction`` of each tile to SRAM.

        Placement defaults to knowledge-based (worst cells first): the
        per-cell error profile is obtainable on real hardware with a
        post-programming verify-read pass, and is always available in
        simulation.  Pass ``use_knowledge=False`` for the paper's
        random-placement fallback (Section 3.4.4 uses random placement
        when only generic analytical models — no readback — exist).
        """
        if use_knowledge is None:
            use_knowledge = True
        return sum(
            bank.assign_sram(fraction, use_knowledge)
            for banks in self.banks.values() for bank in banks
        )

    def update_sram_weights(self) -> None:
        """Push the network's current weights into the SRAM cells."""
        for name, layer in self.model.vmm_layers():
            weights = self._layer_weights(layer)
            for bank, w in zip(self.banks[name], weights):
                bank.update_sram_weights(w)

    def effective_weights(self) -> dict[str, list[np.ndarray]]:
        """Per-layer weight matrices as the analog array realizes them."""
        return {
            name: [bank.effective_matrix() for bank in banks]
            for name, banks in self.banks.items()
        }

    def reprogram(self) -> None:
        """Fresh programming pass over every bank (new noise draw)."""
        for banks in self.banks.values():
            for bank in banks:
                bank.reprogram(self._rng)

    # ------------------------------------------------------------------
    # RNG epochs (deterministic re-serving of per-call noise)
    # ------------------------------------------------------------------
    def rng_snapshot(self) -> list[dict]:
        """Capture every tile's per-call RNG state, in bank/tile order.

        Programming-time draws have already been consumed by the time a
        deployed model exists, so a snapshot taken right after
        construction marks the exact state a fresh ``deploy()`` would
        start its first forward from.  Restoring it before each request
        gives every request the same noise streams — the determinism
        contract ``repro.serve`` relies on to make served basecalls
        bitwise-identical to offline ones regardless of request order or
        concurrency.
        """
        return [tile._rng.bit_generator.state
                for banks in self.banks.values()
                for bank in banks
                for row in bank.tiles for tile in row]

    def rng_restore(self, snapshot: list[dict]) -> None:
        """Restore tile RNG streams captured by :meth:`rng_snapshot`."""
        tiles = [tile
                 for banks in self.banks.values()
                 for bank in banks
                 for row in bank.tiles for tile in row]
        if len(snapshot) != len(tiles):
            raise ValueError(
                f"snapshot holds {len(snapshot)} tile states, model has "
                f"{len(tiles)} tiles — snapshot from a different design?")
        for tile, state in zip(tiles, snapshot):
            tile._rng.bit_generator.state = state

    @property
    def engines(self) -> dict[str, list]:
        """Per-layer :class:`~repro.crossbar.TileEngine` instances."""
        return {name: [bank.engine for bank in banks]
                for name, banks in self.banks.items()}

    def set_backend(self, backend: str | None) -> None:
        """Switch every bank's VMM execution backend in place."""
        for banks in self.banks.values():
            for bank in banks:
                bank.set_backend(backend)

    def release(self) -> BonitoModel:
        """Detach the hook; the model computes exact VMMs again (see
        :meth:`attach`)."""
        self.model.set_matmul_hook(None)
        return self.model


def deploy(model: BonitoModel, bundle: NonidealityBundle,
           crossbar_size: int = 64, write_variation: float = 0.10,
           use_wrv: bool = False, seed: int = 0,
           backend: str | None = None) -> DeployedModel:
    """Convenience constructor for a deployed design point."""
    programming = WriteReadVerify() if use_wrv else None
    return DeployedModel(model, bundle, crossbar_size=crossbar_size,
                         write_variation=write_variation,
                         programming=programming, seed=seed,
                         backend=backend)
