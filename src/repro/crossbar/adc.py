"""Output-side non-idealities: sensing and ADC errors.

The fourth non-ideality class of Section 2.3: the sense amplifiers and
analog-to-digital converters that read the bit-line currents have
finite resolution, a fixed full-scale range (saturation), integral
nonlinearity, and gain/offset error from rigid sensing references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ADCConfig", "apply_adc"]


@dataclass(frozen=True)
class ADCConfig:
    """Sense/ADC parameters.

    ``bits=None`` disables output quantization.  ``range_headroom``
    sets the full-scale range as a multiple of the *typical* (RMS)
    column output — small headroom clips large outputs (saturation),
    large headroom wastes quantization levels; real designs share an
    ADC across columns and must fix this range in hardware.  ``inl``
    is the integral-nonlinearity amplitude as a fraction of full scale.
    """

    bits: int | None = 8
    range_headroom: float = 2.0
    gain_std: float = 0.0
    offset_std: float = 0.0
    inl: float = 0.0

    def __post_init__(self) -> None:
        if self.bits is not None and self.bits < 2:
            # bits=1 would give 2**(bits-1) - 1 = 0 signed levels and a
            # divide-by-zero in apply_adc.
            raise ValueError("ADC bits must be >= 2 for signed levels")
        if self.range_headroom <= 0:
            raise ValueError("range_headroom must be positive")
        for name in ("gain_std", "offset_std", "inl"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def apply_adc(outputs: np.ndarray, config: ADCConfig,
              full_scale: float | np.ndarray,
              rng: np.random.Generator | None = None,
              gain: np.ndarray | None = None,
              offset: np.ndarray | None = None) -> np.ndarray:
    """Convert ideal analog column outputs to the values actually sensed.

    ``full_scale`` is the hardware's fixed sensing range in the same
    units as ``outputs`` (callers derive it from the tile geometry and
    the per-sample DAC scale, not from the batch, because a real ADC
    cannot adapt per input).  It may be a scalar or an array
    broadcastable against ``outputs`` (one range per sample).

    This is the per-tile reference the ``loop`` backend runs; the
    batched kernel (``engine._VmmPlan``) runs the same per-element
    arithmetic over stacked tiles.
    """
    y = np.asarray(outputs, dtype=np.float64)
    if not np.all(np.asarray(full_scale) > 0):
        raise ValueError("full_scale must be positive")

    if gain is None and config.gain_std > 0 and rng is not None:
        gain = 1.0 + rng.standard_normal(y.shape[-1]) * config.gain_std
    if offset is None and config.offset_std > 0 and rng is not None:
        offset = rng.standard_normal(y.shape[-1]) * config.offset_std * full_scale
    if gain is not None:
        y = y * gain
    if offset is not None:
        y = y + offset

    if config.inl > 0:
        # Smooth odd-order INL bow: zero at 0 and ±full_scale, maximal
        # mid-range — the classic flash/SAR INL signature.
        normalized = np.clip(y / full_scale, -1.0, 1.0)
        y = y + config.inl * full_scale * normalized * (1.0 - normalized ** 2)

    y = np.clip(y, -full_scale, full_scale)  # saturation

    if config.bits is not None:
        # ``y`` is fresh after the clip, so quantization runs in place
        # with the same per-element operation order as
        # round(y / full_scale * levels) / levels * full_scale.
        levels = 2 ** (config.bits - 1) - 1
        assert levels > 0  # bits >= 2 enforced in ADCConfig.__post_init__
        y /= full_scale
        y *= levels
        np.rint(y, out=y)  # bitwise == np.round at decimals=0
        y /= levels
        y *= full_scale
    return y
