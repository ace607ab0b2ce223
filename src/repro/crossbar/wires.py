"""Wire resistance, IR drop, and sneak-path effects.

The third non-ideality class of Section 2.3: finite word/bit-line
resistance makes the voltage seen by a cell depend on its position and
on how much current the rest of the array draws.  We use a first-order
fast-crossbar-model (FCM, Jain et al. TCAD 2020) approximation:

* a *static* per-cell attenuation from the resistive divider formed by
  the wire segments between the driver and the cell, and
* a *dynamic* droop proportional to the instantaneous total column
  current (computed from the actual inputs during a VMM).

Both grow with array size — the mechanism behind the paper's
observation that 256×256 crossbars lose more accuracy than 64×64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceConfig

__all__ = ["WireConfig", "static_attenuation", "dynamic_droop"]


@dataclass(frozen=True)
class WireConfig:
    """Interconnect parameters.

    ``segment_ohm`` is the resistance of one wire segment between
    adjacent cells; ``sneak_coupling`` adds a small signal-dependent
    leakage between neighbouring columns (1T1R arrays largely suppress
    sneak paths, so the default is small).
    """

    segment_ohm: float = 1.0
    sneak_coupling: float = 0.0

    def __post_init__(self) -> None:
        if self.segment_ohm < 0:
            raise ValueError("segment resistance must be non-negative")


def static_attenuation(rows: int, cols: int, config: WireConfig,
                       device: DeviceConfig) -> np.ndarray:
    """Per-cell voltage attenuation factor in (0, 1].

    Cell (i, j) sees its drive voltage through ``i`` word-line segments
    and returns current through ``j`` bit-line segments; with average
    cell conductance G_avg the divider attenuates by
    ``1 / (1 + G_avg * R_path)``.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("array dimensions must be positive")
    g_avg = 0.5 * (device.g_min + device.g_max)
    row_path = np.arange(rows)[:, None] * config.segment_ohm
    col_path = np.arange(cols)[None, :] * config.segment_ohm
    return 1.0 / (1.0 + g_avg * (row_path + col_path))


def dynamic_droop(load_fraction: np.ndarray, rows: int | np.ndarray,
                  config: WireConfig, device: DeviceConfig) -> np.ndarray:
    """Input-dependent droop factor per column for one VMM.

    ``load_fraction`` is the column output normalized to its worst case
    (all cells at G_max, full drive), i.e. a value in roughly [0, 1].
    The IR drop along a bit line carrying the worst-case current is
    ``rows · R_segment · G_max`` of the drive voltage; actual droop
    scales with the column's load fraction.
    """
    kappa = rows * config.segment_ohm * device.g_max
    return 1.0 / (1.0 + kappa * np.abs(load_fraction))


def sneak_leakage(column_currents: np.ndarray,
                  config: WireConfig) -> np.ndarray:
    """Additive neighbour-coupling current (zero for 1T1R defaults).

    Couples along the last axis; the edge columns replicate
    themselves.
    """
    if config.sneak_coupling <= 0:
        return np.zeros_like(column_currents)
    padded = np.pad(column_currents, _edge_pad(column_currents.ndim),
                    mode="edge")
    neighbours = 0.5 * (padded[..., :-2] + padded[..., 2:])
    return config.sneak_coupling * neighbours


def _edge_pad(ndim: int) -> list[tuple[int, int]]:
    pad = [(0, 0)] * ndim
    pad[-1] = (1, 1)
    return pad


__all__.append("sneak_leakage")
