"""Squiggle simulation: DNA bases → raw nanopore current samples.

Combines the :mod:`repro.genomics.pore_model` k-mer levels with the
three dominant noise processes of a real MinION read:

* per-sample Gaussian measurement noise (pore-model ``level_stdv``),
* random per-k-mer dwell times (how long each k-mer sits in the pore,
  gamma-distributed around ``samples_per_base``), and
* slow baseline drift, modelled as an Ornstein–Uhlenbeck process.

Also provides the med/MAD normalization every ONT basecaller applies
before inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pore_model import PoreModel, default_pore_model

__all__ = ["SquiggleConfig", "simulate_squiggle", "normalize_signal"]


@dataclass(frozen=True)
class SquiggleConfig:
    """Noise/timing parameters of the signal simulator.

    Defaults approximate an R9.4.1 flowcell at 4 kHz with ~450 bases/s
    translocation, scaled so one base spans ``samples_per_base`` samples
    on average.
    """

    samples_per_base: float = 5.0
    dwell_shape: float = 6.0          # gamma shape; larger = more regular
    min_dwell: int = 2
    noise_scale: float = 0.55         # multiplies pore-model level_stdv
    drift_sigma: float = 1.0          # OU stationary std, pA
    drift_tau: float = 400.0          # OU relaxation time, samples

    def __post_init__(self) -> None:
        if self.samples_per_base <= 0:
            raise ValueError("samples_per_base must be positive")
        if self.min_dwell < 1:
            raise ValueError("min_dwell must be >= 1")


def simulate_squiggle(bases: np.ndarray, rng: np.random.Generator,
                      pore: PoreModel | None = None,
                      config: SquiggleConfig | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the raw current trace for a base-code array.

    Returns ``(signal, dwells)`` where ``signal`` is the raw current in
    pA and ``dwells[i]`` is the number of samples spent on k-mer ``i``.
    """
    pore = pore or default_pore_model()
    config = config or SquiggleConfig()
    bases = np.asarray(bases, dtype=np.int8)
    means, stdvs = pore.levels_for(bases)
    num_kmers = len(means)

    scale = config.samples_per_base / config.dwell_shape
    dwells = rng.gamma(config.dwell_shape, scale, size=num_kmers)
    dwells = np.maximum(np.round(dwells), config.min_dwell).astype(np.int64)
    total = int(dwells.sum())

    level = np.repeat(means, dwells)
    sigma = np.repeat(stdvs, dwells) * config.noise_scale
    noise = rng.standard_normal(total) * sigma

    drift = _ou_process(total, config.drift_sigma, config.drift_tau, rng)
    return level + noise + drift, dwells


def _ou_process(length: int, sigma: float, tau: float,
                rng: np.random.Generator) -> np.ndarray:
    """Sample an Ornstein–Uhlenbeck path of ``length`` samples.

    Uses the exact AR(1) discretization: stationary std ``sigma``,
    relaxation time ``tau`` samples.  The recursion
    ``y[i] = shock[i] + alpha * y[i-1]`` runs over Python floats: a
    read's few thousand samples take well under a millisecond, and the
    result is bitwise-identical to a direct-form IIR filter's.
    """
    if sigma == 0.0 or length == 0:
        return np.zeros(length)
    alpha = np.exp(-1.0 / tau)
    innovation_std = sigma * np.sqrt(1.0 - alpha ** 2)
    shocks = rng.standard_normal(length) * innovation_std
    shocks[0] += alpha * rng.standard_normal() * sigma  # stationary start
    path = np.empty(length)
    decay = float(alpha)
    value = 0.0
    for i, shock in enumerate(shocks.tolist()):
        value = shock + decay * value
        path[i] = value
    return path


def normalize_signal(signal: np.ndarray) -> np.ndarray:
    """Med/MAD normalization (the standard ONT basecaller front end).

    A MAD is degenerate when the largest deviation divided by
    ``1.4826·mad`` is not finite: zero, or so small (subnormal or just
    tiny) that the quotient overflows.  The signal is then scaled as if
    the MAD were 1.
    """
    signal = np.asarray(signal, dtype=np.float64)
    deviation = signal - np.median(signal)
    scale = 1.4826 * np.median(np.abs(deviation))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # swd-ok: SWD005 -- the zero MAD is one of the cases probed here
        peak = np.max(np.abs(deviation), initial=0.0) / scale
    if not np.isfinite(peak):
        scale = 1.4826
    return deviation / scale
