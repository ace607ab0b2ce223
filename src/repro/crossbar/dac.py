"""Input-side non-idealities: DAC quantization and driver R_load effects.

The first non-ideality class of Section 2.3: the digital-to-analog
converters that turn input activations into word-line voltages have
finite resolution, per-channel gain/offset mismatch, and an effective
resistive load (R_Load) that makes the delivered voltage sag when the
array draws current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DACConfig", "apply_dac"]


@dataclass(frozen=True)
class DACConfig:
    """Driver/DAC parameters.

    ``bits=None`` disables input quantization (ideal DAC).  ``r_load``
    scales the voltage sag proportional to the *average* input
    magnitude (first-order model of the shared driver load); ``gain_std``
    and ``offset_std`` are per-invocation channel mismatches.
    """

    bits: int | None = 8
    r_load: float = 0.0
    gain_std: float = 0.0
    offset_std: float = 0.0
    v_max: float = 1.0

    def __post_init__(self) -> None:
        if self.bits is not None and self.bits < 2:
            # bits=1 would give 2**(bits-1) - 1 = 0 signed levels and a
            # divide-by-zero in apply_dac.
            raise ValueError("DAC bits must be >= 2 for signed levels")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        for name in ("r_load", "gain_std", "offset_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def apply_dac(inputs: np.ndarray, config: DACConfig,
              rng: np.random.Generator | None = None,
              gain: np.ndarray | None = None,
              offset: np.ndarray | None = None,
              scale: float | np.ndarray | None = None) -> np.ndarray:
    """Convert ideal digital inputs to the voltages actually driven.

    ``inputs`` is ``(batch, rows)`` in weight-domain units (assumed
    pre-scaled so ``|x| <= v_max`` corresponds to full scale).  ``gain``
    and ``offset`` allow callers to freeze per-row mismatch across calls
    (tile-static mismatch); otherwise fresh mismatch is drawn per call
    when a generator is supplied.

    ``scale`` overrides the full-scale normalization (a scalar, or an
    array broadcastable against ``inputs``; default: the **per-sample**
    input magnitude, ``max(|x|)`` over the last axis only).  Each batch
    row is normalized independently, so a row's delivered voltages never
    depend on what else shares the batch.

    This is the per-tile reference the ``loop`` backend runs; the
    batched kernel (``engine._VmmPlan``) runs the same per-element
    arithmetic over stacked tiles.
    """
    x = np.asarray(inputs, dtype=np.float64)
    assert config.v_max > 0  # DACConfig.__post_init__ invariant
    if scale is None:
        scale = np.maximum(np.abs(x).max(axis=-1, keepdims=True), 1e-12)
    # ``v`` is fresh from here on, so the arithmetic below runs in place
    # (one temporary for the whole chain).
    v = x / scale
    v *= config.v_max

    if config.bits is not None:
        levels = 2 ** (config.bits - 1) - 1
        assert levels > 0  # bits >= 2 enforced in DACConfig.__post_init__
        v /= config.v_max
        v *= levels
        np.rint(v, out=v)  # bitwise == np.round at decimals=0
        v /= levels
        v *= config.v_max

    if gain is None and config.gain_std > 0 and rng is not None:
        gain = 1.0 + rng.standard_normal(x.shape[-1]) * config.gain_std
    if offset is None and config.offset_std > 0 and rng is not None:
        offset = rng.standard_normal(x.shape[-1]) * config.offset_std * config.v_max
    if gain is not None:
        v *= gain
    if offset is not None:
        v += offset

    if config.r_load > 0:
        # Shared-driver sag: the more total drive the array demands, the
        # lower every delivered voltage (R_Load forms a divider with the
        # array's input impedance).
        demand = np.abs(v).mean(axis=-1, keepdims=True)
        demand /= config.v_max
        demand *= config.r_load
        demand += 1.0
        # swd-ok: SWD005 -- demand >= 1.0 (non-negative magnitude + 1.0)
        v /= demand

    v /= config.v_max
    v *= scale  # back to weight-domain units
    return v
