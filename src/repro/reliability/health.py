"""Numeric health guards: detect divergence instead of propagating it.

A multi-hour VAT/KD retraining sweep that goes NaN mid-way does not
crash — it silently poisons every downstream accuracy row.  The
:class:`HealthMonitor` watches the three places divergence enters:

* per-batch training losses (``check_loss``),
* global gradient norms (``check_grad_norm``),
* VMM outputs during deployed evaluation (``check_array``).

NaN/Inf anywhere is an immediate :class:`DivergenceError`; finite
explosion is flagged against a running reference (the smallest loss
seen so far) after a warm-up period.  The error is *structured* —
metric name, offending value, step, recent history — so a failed sweep
job records what diverged, not a bare stack trace.

The :class:`HealthPolicy` decides what the training loop does about a
divergence: ``"fail"`` propagates the error (the sweep runner records
a failed :class:`~repro.runtime.JobOutcome`); ``"rollback"`` makes
:func:`repro.basecaller.train_model` restore the last checkpoint with
a reduced learning rate, up to ``max_rollbacks`` times.

This module deliberately imports nothing above :mod:`numpy`, so every
layer (``nn``, ``basecaller``, ``core``, ``runtime``) can depend on it
without cycles.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["DivergenceError", "HealthPolicy", "HealthMonitor",
           "default_monitor"]

_MAX_FINITE = float(np.finfo(np.float64).max)


class DivergenceError(RuntimeError):
    """A watched quantity went NaN/Inf or exploded past its bound."""

    def __init__(self, metric: str, value: float, *, step: int | None = None,
                 detail: str = "", history=()):
        self.metric = metric
        self.value = float(value) if math.isfinite(value) else value
        self.step = step
        self.detail = detail
        self.history = [float(v) for v in history]
        where = f" at step {step}" if step is not None else ""
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"numeric divergence in {metric!r}{where}: value={value!r}{extra}")

    def to_dict(self) -> dict:
        """Plain-data rendering for telemetry/journal records."""
        return {"metric": self.metric, "value": repr(self.value),
                "step": self.step, "detail": self.detail,
                "history": self.history}


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class HealthPolicy:
    """What counts as divergence, and what to do about it."""

    #: "fail" propagates DivergenceError; "rollback" restores the last
    #: checkpoint with a decayed learning rate (training loops only).
    on_divergence: str = "fail"
    #: Finite loss explosion: loss > ratio * max(|best loss so far|, 1).
    loss_explosion_ratio: float = 1e3
    #: Hard bound on the pre-clip global gradient norm.
    grad_norm_limit: float = 1e6
    #: Hard bound on |VMM output| during deployed evaluation.
    output_limit: float = 1e12
    #: Loss-explosion checks only start after this many loss samples.
    warmup_steps: int = 5
    #: Rollback budget before a rollback policy fails anyway.
    max_rollbacks: int = 2
    #: Learning-rate multiplier applied per rollback.
    lr_decay: float = 0.5

    def __post_init__(self) -> None:
        if self.on_divergence not in ("fail", "rollback"):
            raise ValueError(
                f"on_divergence must be 'fail' or 'rollback', "
                f"got {self.on_divergence!r}")

    @classmethod
    def from_env(cls) -> "HealthPolicy":
        """Policy from ``SWORDFISH_HEALTH_*`` environment variables."""
        return cls(
            on_divergence=os.environ.get("SWORDFISH_HEALTH_POLICY", "fail"),
            loss_explosion_ratio=_env_float(
                "SWORDFISH_HEALTH_LOSS_RATIO", 1e3),
            grad_norm_limit=_env_float("SWORDFISH_HEALTH_GRAD_LIMIT", 1e6),
            output_limit=_env_float("SWORDFISH_HEALTH_OUTPUT_LIMIT", 1e12),
            max_rollbacks=int(_env_float("SWORDFISH_HEALTH_MAX_ROLLBACKS", 2)),
            lr_decay=_env_float("SWORDFISH_HEALTH_LR_DECAY", 0.5),
        )


class HealthMonitor:
    """Stateful divergence detector shared by training and evaluation."""

    def __init__(self, policy: HealthPolicy | None = None):
        self.policy = policy or HealthPolicy()
        self.rollbacks = 0
        self._loss_history: deque[float] = deque(maxlen=16)
        self._best_loss: float | None = None
        self._loss_samples = 0

    # ------------------------------------------------------------------
    def check_loss(self, value: float, step: int | None = None) -> float:
        """Validate one training-loss sample; returns it unchanged."""
        value = float(value)
        if not math.isfinite(value):
            raise DivergenceError("loss", value, step=step,
                                  detail="non-finite training loss",
                                  history=self._loss_history)
        reference = max(abs(self._best_loss), 1.0) \
            if self._best_loss is not None else None
        if (reference is not None
                and self._loss_samples >= self.policy.warmup_steps
                and value > self.policy.loss_explosion_ratio * reference):
            raise DivergenceError(
                "loss", value, step=step,
                detail=f"loss exploded past "
                       f"{self.policy.loss_explosion_ratio:g}x the best "
                       f"loss seen ({self._best_loss:g})",
                history=self._loss_history)
        self._loss_history.append(value)
        self._loss_samples += 1
        if self._best_loss is None or value < self._best_loss:
            self._best_loss = value
        return value

    def check_grad_norm(self, value: float, step: int | None = None) -> float:
        """Validate one pre-clip global gradient norm."""
        value = float(value)
        if not math.isfinite(value):
            raise DivergenceError("grad_norm", value, step=step,
                                  detail="non-finite gradient norm")
        if value > self.policy.grad_norm_limit:
            raise DivergenceError(
                "grad_norm", value, step=step,
                detail=f"gradient norm above the "
                       f"{self.policy.grad_norm_limit:g} bound")
        return value

    def check_array(self, name: str, array: np.ndarray,
                    step: int | None = None) -> np.ndarray:
        """Validate an evaluation-path array (e.g. one VMM output)."""
        array = np.asarray(array)
        if array.size == 0:
            return array
        # One reduction on the hot path: NaN and ±inf fail the compare
        # (the bound is capped at the largest finite float), so only a
        # failing array pays for the checks that name the failure.
        if np.abs(array).max() <= min(self.policy.output_limit, _MAX_FINITE):
            return array
        if not np.isfinite(array).all():
            bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
            raise DivergenceError(
                name, float("nan"), step=step,
                detail=f"{bad}/{array.size} non-finite elements")
        peak = float(np.abs(array).max())
        if peak > self.policy.output_limit:
            raise DivergenceError(
                name, peak, step=step,
                detail=f"magnitude above the "
                       f"{self.policy.output_limit:g} bound")
        return array

    # ------------------------------------------------------------------
    def note_rollback(self) -> int:
        """Record one rollback and reset loss statistics; returns count."""
        self.rollbacks += 1
        self._loss_history.clear()
        self._best_loss = None
        self._loss_samples = 0
        return self.rollbacks

    @property
    def can_roll_back(self) -> bool:
        return (self.policy.on_divergence == "rollback"
                and self.rollbacks < self.policy.max_rollbacks)


def default_monitor() -> HealthMonitor | None:
    """Monitor per the environment; ``None`` when guards are disabled.

    ``SWORDFISH_HEALTH=off`` (or ``0``/``false``) disables the numeric
    guards entirely; anything else yields a fresh monitor with the
    ``SWORDFISH_HEALTH_*`` policy.
    """
    flag = os.environ.get("SWORDFISH_HEALTH", "").strip().lower()
    if flag in ("0", "off", "false", "no"):
        return None
    return HealthMonitor(HealthPolicy.from_env())
