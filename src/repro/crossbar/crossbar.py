"""Crossbar tiles and tiled weight banks: the non-ideal VMM engine.

A :class:`CrossbarTile` holds one weight block programmed into a
``size × size`` memristor array; :class:`CrossbarBank` tiles an
arbitrary weight matrix over a grid of such tiles and implements the
full vector-matrix multiply the way the hardware does it:

    DAC → (noisy conductances ⊙ wire attenuation) → column currents
        → IR droop → sense/ADC → digital partial-sum across row tiles

Programming-time effects (write variation, device variation, stuck
faults, wire attenuation) are frozen at construction — as on a real
chip — while input-dependent effects (DAC quantization and droop, ADC
saturation/quantization, read noise) are applied per VMM call.

RSA support: a boolean ``sram_mask`` marks cells whose weights live in
the near-crossbar SRAM instead of memristors; their contribution is
computed exactly in the digital domain (Fig. 6 of the paper).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .adc import ADCConfig, apply_adc
from .dac import DACConfig, apply_dac
from .device import (
    DeviceConfig,
    conductance_to_weight,
    weight_to_conductance,
)
from .engine import (
    BACKENDS,
    BackendResolutionError,
    TileEngine,
    available_backends,
    iter_tile_blocks,
    spawn_generators,
    tile_grid,
)
from .noise import (
    VariationConfig,
    apply_device_variation,
    apply_stuck_faults,
    sample_error_prone_map,
)
from .programming import ProgrammingScheme, SetResetProgramming
from .wires import WireConfig, dynamic_droop, static_attenuation, sneak_leakage

__all__ = ["CrossbarConfig", "CrossbarTile", "CrossbarBank"]


@dataclass(frozen=True)
class CrossbarConfig:
    """Complete description of one crossbar design point.

    ``backend`` selects the bank-level VMM execution engine: ``"loop"``
    (per-tile reference path) or ``"batched"`` (vectorized, default).
    ``None`` defers to the ``SWORDFISH_VMM_BACKEND`` environment
    variable, falling back to ``"batched"``.
    """

    size: int = 64
    device: DeviceConfig = field(default_factory=DeviceConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    wire: WireConfig = field(default_factory=WireConfig)
    dac: DACConfig = field(default_factory=DACConfig)
    adc: ADCConfig = field(default_factory=ADCConfig)
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("crossbar size must be >= 2")
        if self.backend is not None and self.backend not in BACKENDS:
            raise BackendResolutionError(
                self.backend, "CrossbarConfig.backend", available_backends())

    # ------------------------------------------------------------------
    # Serialization.  Fields are enumerated explicitly (not
    # ``asdict(self)``) so the SWD002 analyzer can prove each one
    # reaches the cache key; the nested sub-configs are plain frozen
    # dataclasses and serialize via ``asdict``.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data rendering; round-trips through :meth:`from_dict`."""
        return {
            "size": self.size,
            "device": asdict(self.device),
            "variation": asdict(self.variation),
            "wire": asdict(self.wire),
            "dac": asdict(self.dac),
            "adc": asdict(self.adc),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrossbarConfig":
        return cls(
            size=data["size"],
            device=DeviceConfig(**data["device"]),
            variation=VariationConfig(**data["variation"]),
            wire=WireConfig(**data["wire"]),
            dac=DACConfig(**data["dac"]),
            adc=ADCConfig(**data["adc"]),
            backend=data.get("backend"),
        )

    def cache_key(self) -> str:
        """Stable content hash of the modeled physics.

        ``backend`` is popped: the loop/batched engines are bitwise-
        equivalent on identical seeds, so the execution backend must
        never split a result cache (see
        ``repro.analysis.config.CACHE_EXCLUDED_FIELDS``).
        """
        payload = self.to_dict()
        payload.pop("backend", None)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return f"crossbar_x{self.size}_{digest}"

    def ideal(self) -> "CrossbarConfig":
        """A copy of this design with every non-ideality disabled."""
        return CrossbarConfig(
            size=self.size,
            device=DeviceConfig(
                hrs_ohm=self.device.hrs_ohm,
                lrs_ohm=self.device.lrs_ohm,
                nonlinearity=0.0,
                levels=2 ** 16,
                read_noise=0.0,
            ),
            variation=VariationConfig(0.0, 0.0, 0.0, 0.0),
            wire=WireConfig(0.0, 0.0),
            dac=DACConfig(bits=None),
            adc=ADCConfig(bits=None, range_headroom=1e6),
            backend=self.backend,
        )


class CrossbarTile:
    """One programmed ``rows × cols`` tile (rows, cols ≤ config.size)."""

    def __init__(self, weights: np.ndarray, config: CrossbarConfig,
                 rng: np.random.Generator,
                 programming: ProgrammingScheme | None = None,
                 w_max: float | None = None):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("tile weights must be 2-D")
        rows, cols = weights.shape
        if rows > config.size or cols > config.size:
            raise ValueError(
                f"tile {weights.shape} exceeds crossbar size {config.size}"
            )
        self.config = config
        self.programming = programming or SetResetProgramming()
        self.ideal_weights = weights.copy()
        self.rows, self.cols = rows, cols
        self.w_max = float(w_max) if w_max else max(float(np.abs(weights).max()), 1e-9)
        self._rng = rng
        self.sram_mask = np.zeros(weights.shape, dtype=bool)
        self._program()

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def _program(self) -> None:
        device = self.config.device
        variation = self.config.variation
        g_pos, g_neg = weight_to_conductance(self.ideal_weights, self.w_max,
                                             device)
        achieved = []
        for target in (g_pos, g_neg):
            g = self.programming.program(target, variation.write_variation,
                                         self._rng, device)
            g = apply_device_variation(g, variation.device_variation,
                                       self._rng, device)
            g = apply_stuck_faults(g, variation.stuck_lrs, variation.stuck_hrs,
                                   self._rng, device)
            achieved.append(g)
        self._g_pos, self._g_neg = achieved

        attenuation = static_attenuation(self.rows, self.cols,
                                         self.config.wire, device)
        effective_pos = self._g_pos * attenuation
        effective_neg = self._g_neg * attenuation
        self.effective_weights = conductance_to_weight(
            effective_pos, effective_neg, self.w_max, device
        )

    def reprogram(self, rng: np.random.Generator | None = None) -> None:
        """Re-run programming (fresh noise draw) — e.g. periodic R-V-W."""
        if rng is not None:
            self._rng = rng
        self._program()

    def age(self, elapsed_s: float, drift_config) -> None:
        """Apply retention drift to the programmed conductances.

        ``drift_config`` is a :class:`repro.crossbar.DriftConfig`; the
        tile's effective weights are recomputed from the drifted
        conductance pair.
        """
        from .drift import apply_retention_drift
        from .wires import static_attenuation

        device = self.config.device
        self._g_pos = apply_retention_drift(self._g_pos, elapsed_s,
                                            drift_config, device, self._rng)
        self._g_neg = apply_retention_drift(self._g_neg, elapsed_s,
                                            drift_config, device, self._rng)
        attenuation = static_attenuation(self.rows, self.cols,
                                         self.config.wire, device)
        self.effective_weights = conductance_to_weight(
            self._g_pos * attenuation, self._g_neg * attenuation,
            self.w_max, device,
        )

    # ------------------------------------------------------------------
    # Error characterization (drives knowledge-based RSA)
    # ------------------------------------------------------------------
    def error_severity(self) -> np.ndarray:
        """Per-cell |achieved − ideal| weight error (chip characterization)."""
        return np.abs(self.effective_weights - self.ideal_weights)

    def assign_sram(self, fraction: float, use_knowledge: bool = True) -> int:
        """Move the worst (or random) ``fraction`` of cells to SRAM.

        Returns the number of remapped cells.  SRAM-resident weights are
        exact and can later be updated by online retraining
        (:meth:`update_sram_weights`).
        """
        severity = self.error_severity() if use_knowledge else None
        self.sram_mask = sample_error_prone_map(
            (self.rows, self.cols), fraction, self._rng, severity=severity
        )
        return int(self.sram_mask.sum())

    def update_sram_weights(self, new_weights: np.ndarray) -> None:
        """Online update of SRAM-resident weights (RSA retraining step)."""
        new_weights = np.asarray(new_weights, dtype=np.float64)
        if new_weights.shape != self.ideal_weights.shape:
            raise ValueError("weight shape mismatch")
        self.ideal_weights[self.sram_mask] = new_weights[self.sram_mask]

    # ------------------------------------------------------------------
    # VMM
    # ------------------------------------------------------------------
    def vmm(self, inputs: np.ndarray) -> np.ndarray:
        """Non-ideal VMM: ``(batch, rows) @ (rows, cols)``."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[-1] != self.rows:
            raise ValueError(f"input width {x.shape[-1]} != tile rows {self.rows}")
        config = self.config

        # Per-sample DAC scale: each batch row is normalized to its own
        # magnitude, so a row's result can never depend on what else
        # shares the batch (the invariant behind stacked serving).
        x_scale = np.maximum(np.abs(x).max(axis=-1, keepdims=True), 1e-12)
        v = apply_dac(x, config.dac, self._rng, scale=x_scale)

        analog_weights = self.effective_weights
        if self.sram_mask.any():
            analog_weights = np.where(self.sram_mask, 0.0, analog_weights)
        if config.device.read_noise > 0:
            jitter = 1.0 + self._rng.standard_normal(
                analog_weights.shape) * config.device.read_noise
            analog_weights = analog_weights * jitter

        y = v @ analog_weights
        worst_case_output = self.rows * self.w_max * x_scale
        # swd-ok: SWD005 -- rows >= 1, w_max floored at 1e-9, x_scale at 1e-12
        y = y * dynamic_droop(y / worst_case_output, self.rows,
                              config.wire, config.device)
        y = y + sneak_leakage(y, config.wire)

        # Fixed sensing range: proportional to the tile's worst-case
        # accumulation, scaled by each sample's input magnitude (the DAC
        # front end normalizes inputs to full scale per sample).
        full_scale = (config.adc.range_headroom * np.sqrt(self.rows)
                      * self.w_max * x_scale)
        y = apply_adc(y, config.adc, full_scale, self._rng)

        if self.sram_mask.any():
            digital = np.where(self.sram_mask, self.ideal_weights, 0.0)
            y = y + x @ digital
        return y

    def ideal_vmm(self, inputs: np.ndarray) -> np.ndarray:
        """Exact reference product with the ideal weights."""
        return np.atleast_2d(inputs) @ self.ideal_weights


class CrossbarBank:
    """An arbitrary weight matrix tiled over crossbar tiles.

    Partial sums across row-tiles are accumulated digitally after each
    tile's ADC — so per-tile quantization/saturation errors add, which
    is why larger matrices (and larger tiles) lose more accuracy.

    Every tile owns an independent RNG stream spawned from ``rng`` (a
    :class:`~numpy.random.Generator`, :class:`~numpy.random.SeedSequence`
    or integer seed), so neither the execution backend nor the tile
    evaluation order can change which noise a tile draws.  Execution is
    delegated to a :class:`~repro.crossbar.engine.TileEngine`; tile
    state must be mutated through the bank's methods (``assign_sram``,
    ``update_sram_weights``, ``reprogram``, ``age``) — or followed by
    :meth:`sync_engine` — so the engine's stacked arrays stay current.
    """

    def __init__(self, weights: np.ndarray, config: CrossbarConfig,
                 rng: np.random.Generator | np.random.SeedSequence | int,
                 programming: ProgrammingScheme | None = None,
                 name: str = "bank",
                 backend: str | None = None):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("bank weights must be 2-D")
        self.name = name
        self.config = config
        self.shape = weights.shape
        self.grid = tile_grid(weights.shape, config.size)
        w_max = max(float(np.abs(weights).max()), 1e-9)
        self._rng_source = self._as_spawnable(rng)
        children = spawn_generators(self._rng_source,
                                    self.grid[0] * self.grid[1])
        self.tiles: list[list[CrossbarTile]] = [
            [] for _ in range(self.grid[0])]
        for (i, _, row_slice, col_slice), child in zip(
                iter_tile_blocks(weights.shape, config.size), children):
            self.tiles[i].append(
                CrossbarTile(weights[row_slice, col_slice], config, child,
                             programming=programming, w_max=w_max))
        self.engine = TileEngine(self, backend=backend)

    @staticmethod
    def _as_spawnable(rng):
        """Normalize the RNG argument to a stateful spawn source."""
        if isinstance(rng, (int, np.integer)):
            return np.random.SeedSequence(int(rng))
        return rng

    @property
    def num_tiles(self) -> int:
        return sum(len(row) for row in self.tiles)

    @property
    def backend(self) -> str:
        """The resolved VMM execution backend of this bank."""
        return self.engine.backend

    def set_backend(self, backend: str | None) -> None:
        """Switch execution backend (``None`` → env var / default)."""
        self.engine.set_backend(backend)

    def sync_engine(self) -> None:
        """Force a full engine re-sync after direct tile mutation."""
        self.engine.sync_sram()
        self.engine.sync_effective()

    def vmm(self, inputs: np.ndarray) -> np.ndarray:
        """Tiled non-ideal VMM over the full matrix."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[-1] != self.shape[0]:
            raise ValueError(
                f"input width {x.shape[-1]} != matrix rows {self.shape[0]}"
            )
        return self.engine.execute(x)

    def assign_sram(self, fraction: float, use_knowledge: bool = True) -> int:
        """Apply RSA to every tile; returns total remapped cells.

        Knowledge-based placement ranks cells by the engine's stacked
        per-tile error severities (|achieved − ideal|), so no per-tile
        effective matrices are recomputed.
        """
        severity = (self.engine.severity_stack() if use_knowledge else None)
        moved = 0
        for t, tile in enumerate(self._flat_tiles()):
            tile.sram_mask = sample_error_prone_map(
                (tile.rows, tile.cols), fraction, tile._rng,
                severity=(severity[t, :tile.rows, :tile.cols]
                          if severity is not None else None),
            )
            moved += int(tile.sram_mask.sum())
        self.engine.sync_sram()
        return moved

    def update_sram_weights(self, weights: np.ndarray) -> None:
        """Push updated weights into each tile's SRAM-resident cells."""
        weights = np.asarray(weights, dtype=np.float64)
        for (_, _, row_slice, col_slice), tile in zip(
                iter_tile_blocks(self.shape, self.config.size),
                self._flat_tiles()):
            tile.update_sram_weights(weights[row_slice, col_slice])
        self.engine.sync_sram()

    def reprogram(self, rng: np.random.Generator | np.random.SeedSequence
                  | int | None = None) -> None:
        """Fresh programming pass over every tile (new noise draws)."""
        if rng is not None:
            self._rng_source = self._as_spawnable(rng)
        children = spawn_generators(self._rng_source, self.num_tiles)
        for tile, child in zip(self._flat_tiles(), children):
            tile.reprogram(child)
        self.engine.sync_effective()

    def age(self, elapsed_s: float, drift_config) -> None:
        """Apply retention drift to every tile (see CrossbarTile.age)."""
        for tile in self._flat_tiles():
            tile.age(elapsed_s, drift_config)
        self.engine.sync_effective()

    def effective_matrix(self) -> np.ndarray:
        """The weight matrix the analog array actually implements."""
        return self.engine.effective_matrix()

    def error_severity(self) -> np.ndarray:
        """Full-matrix |achieved − ideal| weight error."""
        return self.engine.error_severity()

    def sram_matrix(self) -> np.ndarray:
        """Full-matrix boolean mask of SRAM-resident weights."""
        return self.engine.sram_matrix()

    def _flat_tiles(self):
        for row in self.tiles:
            yield from row
