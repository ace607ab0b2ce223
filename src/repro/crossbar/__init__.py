"""``repro.crossbar`` — memristor crossbar substrate with non-idealities.

Device physics (ReRAM conductance states), stochastic variations,
wire/IR-drop effects, DAC/ADC converter errors, programming schemes,
and the tiled VMM engine.
"""

from .device import (
    DeviceConfig,
    weight_to_conductance,
    conductance_to_weight,
    state_to_conductance,
    conductance_levels,
)
from .noise import (
    VariationConfig,
    apply_write_variation,
    apply_device_variation,
    apply_stuck_faults,
    sample_error_prone_map,
)
from .wires import WireConfig, static_attenuation, dynamic_droop, sneak_leakage
from .dac import DACConfig, apply_dac
from .adc import ADCConfig, apply_adc
from .programming import ProgrammingScheme, SetResetProgramming, WriteReadVerify
from .drift import DriftConfig, apply_retention_drift, RefreshPolicy
from .crossbar import CrossbarConfig, CrossbarTile, CrossbarBank
from .engine import (
    BACKENDS,
    BackendResolutionError,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    TileEngine,
    TileStacks,
    available_backends,
    iter_tile_blocks,
    resolve_backend,
    spawn_generators,
    tile_grid,
)

__all__ = [
    "DeviceConfig", "weight_to_conductance", "conductance_to_weight",
    "state_to_conductance", "conductance_levels",
    "VariationConfig", "apply_write_variation", "apply_device_variation",
    "apply_stuck_faults", "sample_error_prone_map",
    "WireConfig", "static_attenuation", "dynamic_droop", "sneak_leakage",
    "DACConfig", "apply_dac",
    "ADCConfig", "apply_adc",
    "ProgrammingScheme", "SetResetProgramming", "WriteReadVerify",
    "DriftConfig", "apply_retention_drift", "RefreshPolicy",
    "CrossbarConfig", "CrossbarTile", "CrossbarBank",
    "BACKENDS", "BackendResolutionError", "DEFAULT_BACKEND", "ENV_BACKEND",
    "TileEngine", "TileStacks", "available_backends",
    "iter_tile_blocks", "resolve_backend", "spawn_generators", "tile_grid",
]
