"""Accuracy Enhancer (Swordfish module ③).

Implements the paper's four mitigation families and their combination
(Section 3.4):

* :func:`vat_retrain` — analytical variation-aware training: gradients
  are taken at weights perturbed with the same error statistics the
  crossbar induces (characterized per layer from a programmed bank).
* :func:`kd_retrain` — knowledge-distillation VAT: the FP32 baseline
  teaches a quantized, noise-exposed student.
* R-V-W — write-read-verify programming, plugged into deployment via
  :class:`repro.crossbar.WriteReadVerify` (see :func:`build_design`).
* :func:`rsa_online_retrain` — random sparse adaptation: the worst
  cells of every tile are remapped to near-crossbar SRAM, then *only*
  those weights are retrained online against the frozen non-ideal
  realization of the rest (Fig. 6's three-step loop, with KD as the
  retraining signal).

:func:`build_design` composes these into the named technique stacks the
evaluation section sweeps: ``none / vat / kd / rvw / rsa_kd / all``.
Retrained models are cached on disk because every figure reuses them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import nn
from ..basecaller import (
    BonitoModel,
    Chunk,
    TrainConfig,
    cache_dir,
    make_training_chunks,
    train_model,
)
from ..crossbar import CrossbarBank, WriteReadVerify
from .nonidealities import NonidealityBundle, get_bundle
from .vmm_model import DeployedModel

__all__ = [
    "EnhanceConfig",
    "TECHNIQUES",
    "characterize_weight_noise",
    "vat_retrain",
    "kd_retrain",
    "rsa_online_retrain",
    "EnhancedDesign",
    "build_design",
]

#: Technique names in the order the paper's figures present them.
TECHNIQUES: tuple[str, ...] = ("none", "vat", "kd", "rvw", "rsa_kd", "all")


@dataclass(frozen=True)
class EnhanceConfig:
    """Hyperparameters of the mitigation techniques."""

    retrain_epochs: int = 4
    retrain_lr: float = 1.5e-3
    num_chunks: int = 256
    kd_alpha: float = 0.5          # weight of the hard CTC term
    kd_temperature: float = 2.0
    sram_fraction: float = 0.05    # the paper's 5% default
    online_epochs: int = 3
    online_lr: float = 2e-3
    # R-V-W is cost-bounded: only the worst `wrv_fraction` of cells get
    # the verify loop (the paper: accuracy improves with the fraction of
    # retrained devices, at proportional cost — Section 3.4.3).
    wrv_iterations: int = 5
    wrv_fraction: float = 0.25
    seed: int = 1337

    # ------------------------------------------------------------------
    # Serialization.  Fields are enumerated explicitly (not asdict) so
    # the SWD002 analyzer can prove each one reaches the cache key.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data rendering; round-trips through :meth:`from_dict`."""
        return {
            "retrain_epochs": self.retrain_epochs,
            "retrain_lr": self.retrain_lr,
            "num_chunks": self.num_chunks,
            "kd_alpha": self.kd_alpha,
            "kd_temperature": self.kd_temperature,
            "sram_fraction": self.sram_fraction,
            "online_epochs": self.online_epochs,
            "online_lr": self.online_lr,
            "wrv_iterations": self.wrv_iterations,
            "wrv_fraction": self.wrv_fraction,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnhanceConfig":
        return cls(**data)

    def cache_key(self) -> str:
        """Stable content hash of the mitigation hyperparameters."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Noise characterization (feeds VAT)
# ----------------------------------------------------------------------

def characterize_weight_noise(model: BonitoModel, bundle: NonidealityBundle,
                              crossbar_size: int, write_variation: float,
                              seed: int = 0) -> dict[int, np.ndarray]:
    """Per-parameter std of the crossbar-induced weight error.

    Programs each VMM layer's weights into a bank once and measures
    ``std(W_eff − W)`` elementwise-free (per matrix) — the "crossbar
    characterization for the errors per VMM" VAT consumes
    (Section 3.4.1).  Keyed by ``id(param)`` for the perturb hook.
    """
    rng = np.random.default_rng(seed)
    config = bundle.crossbar_config(crossbar_size, write_variation)
    noise: dict[int, np.ndarray] = {}
    for _, layer in model.vmm_layers():
        params = ([layer.weight_ih, layer.weight_hh]
                  if hasattr(layer, "weight_hh") else [layer.weight])
        for param in params:
            bank = CrossbarBank(param.data, config, rng)
            error = bank.effective_matrix() - param.data
            sigma = float(error.std())
            noise[id(param)] = np.full(param.data.shape, sigma)
    return noise


class _VatPerturb:
    """Weight-perturb hook for :func:`repro.basecaller.train_model`.

    A class (not a closure) so the noise RNG's state can be
    checkpointed: resuming a killed VAT run then continues on the
    exact perturbation stream, keeping resume bitwise-identical.
    """

    def __init__(self, noise: dict[int, np.ndarray], seed: int):
        self.noise = noise
        self.rng = np.random.default_rng(seed)

    def __call__(self, model: BonitoModel):
        saved: list[tuple[nn.Parameter, np.ndarray]] = []
        for param in model.parameters():
            sigma = self.noise.get(id(param))
            if sigma is None:
                continue
            saved.append((param, param.data.copy()))
            param.data = param.data + \
                self.rng.standard_normal(param.data.shape) * sigma

        def undo() -> None:
            for param, clean in saved:
                param.data = clean

        return undo

    def state_dict(self) -> dict:
        return {"rng": self.rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


def _make_perturb(noise: dict[int, np.ndarray], seed: int) -> _VatPerturb:
    return _VatPerturb(noise, seed)


def _stage_checkpoint(stage: str, key: str) -> "Path | None":
    """Checkpoint path for one retraining stage, if checkpointing is on.

    ``SWORDFISH_CHECKPOINT_DIR`` opts long retraining loops into
    periodic full-state checkpoints; unset (the default) keeps the
    hot path free of checkpoint I/O.
    """
    root = os.environ.get("SWORDFISH_CHECKPOINT_DIR", "").strip()
    if not root:
        return None
    return Path(root) / f"{stage}_{key}.ckpt"


# ----------------------------------------------------------------------
# VAT and KD retraining
# ----------------------------------------------------------------------

def _design_key(bundle: NonidealityBundle, crossbar_size: int,
                write_variation: float, config: EnhanceConfig) -> str:
    payload = (f"{bundle.name}|{crossbar_size}|{write_variation:.6f}|"
               f"{config.cache_key()}")
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def vat_retrain(model: BonitoModel, bundle: NonidealityBundle,
                crossbar_size: int, write_variation: float,
                chunks: Sequence[Chunk], config: EnhanceConfig,
                checkpoint_path: Path | None = None) -> BonitoModel:
    """Variation-aware retraining against this design point's noise."""
    noise = characterize_weight_noise(model, bundle, crossbar_size,
                                      write_variation, seed=config.seed)
    if checkpoint_path is None:
        checkpoint_path = _stage_checkpoint(
            "vat", _design_key(bundle, crossbar_size, write_variation,
                               config))
    train_model(
        model, chunks,
        TrainConfig(epochs=config.retrain_epochs, lr=config.retrain_lr,
                    seed=config.seed),
        weight_perturb=_make_perturb(noise, config.seed + 1),
        checkpoint_path=checkpoint_path,
    )
    if checkpoint_path is not None:
        checkpoint_path.unlink(missing_ok=True)  # retraining finished
    return model


def _kd_loss_fn(teacher: BonitoModel, alpha: float, temperature: float):
    """CTC + distillation loss against the FP32 teacher's soft targets."""

    def loss_fn(model: BonitoModel, signals: nn.Tensor,
                targets: list[np.ndarray]) -> nn.Tensor:
        logits = model(signals)
        hard = nn.ctc_loss(logits, targets)
        with nn.no_grad():
            teacher_logits = teacher(nn.Tensor(signals.data))
        soft_targets = nn.Tensor(
            (teacher_logits / temperature).softmax(axis=-1).data
        )
        log_student = (logits * (1.0 / temperature)).log_softmax(axis=-1)
        soft = -(soft_targets * log_student).sum(axis=-1).mean()
        soft = soft * (temperature ** 2)
        return hard * alpha + soft * (1.0 - alpha)

    return loss_fn


def kd_retrain(student: BonitoModel, teacher: BonitoModel,
               bundle: NonidealityBundle, crossbar_size: int,
               write_variation: float, chunks: Sequence[Chunk],
               config: EnhanceConfig,
               checkpoint_path: Path | None = None) -> BonitoModel:
    """Knowledge-distillation VAT (Section 3.4.2).

    The student trains under crossbar weight noise while matching the
    teacher's softened output distribution.
    """
    noise = characterize_weight_noise(student, bundle, crossbar_size,
                                      write_variation, seed=config.seed)
    if checkpoint_path is None:
        checkpoint_path = _stage_checkpoint(
            "kd", _design_key(bundle, crossbar_size, write_variation,
                              config))
    train_model(
        student, chunks,
        TrainConfig(epochs=config.retrain_epochs, lr=config.retrain_lr,
                    seed=config.seed),
        loss_fn=_kd_loss_fn(teacher, config.kd_alpha, config.kd_temperature),
        weight_perturb=_make_perturb(noise, config.seed + 2),
        checkpoint_path=checkpoint_path,
    )
    if checkpoint_path is not None:
        checkpoint_path.unlink(missing_ok=True)  # retraining finished
    return student


# ----------------------------------------------------------------------
# RSA online retraining
# ----------------------------------------------------------------------

def rsa_online_retrain(deployed: DeployedModel, chunks: Sequence[Chunk],
                       config: EnhanceConfig,
                       teacher: BonitoModel | None = None,
                       sram_fraction: float | None = None,
                       checkpoint_path: Path | None = None) -> DeployedModel:
    """RSA + online retraining (Fig. 6's loop).

    1. The worst ``sram_fraction`` of each tile moves to SRAM.
    2. A training replica is built whose weights equal the *frozen*
       non-ideal realization of the array; only SRAM-resident positions
       receive gradient updates (off-mask gradients are zeroed).
    3. Updated SRAM weights are pushed back to the banks.

    Per-call converter noise is not simulated inside the retraining
    forward (the frozen weight realization carries the dominant errors);
    DESIGN.md records this approximation.
    """
    fraction = config.sram_fraction if sram_fraction is None else sram_fraction
    deployed.assign_sram(fraction)
    if fraction <= 0:
        return deployed

    model = deployed.model
    # Build the frozen-realization replica in place: stash clean weights,
    # load effective ones, train masked, then restore.
    effective = deployed.effective_weights()
    param_info: list[tuple[nn.Parameter, np.ndarray, np.ndarray]] = []
    for name, layer in model.vmm_layers():
        params = ([layer.weight_ih, layer.weight_hh]
                  if hasattr(layer, "weight_hh") else [layer.weight])
        banks = deployed.banks[name]
        for param, bank, eff in zip(params, banks, effective[name]):
            mask = bank.sram_matrix()
            param_info.append((param, param.data.copy(), mask))
            param.data = eff.copy()

    model.set_matmul_hook(None)  # train with exact matmuls on frozen weights
    loss_fn = (_kd_loss_fn(teacher, config.kd_alpha, config.kd_temperature)
               if teacher is not None else None)

    masks = {id(p): m for p, _, m in param_info}

    def masked_perturb(m: BonitoModel):
        # No perturbation; we only use the hook's undo slot to mask
        # gradients right after backward (before the optimizer step).
        def undo() -> None:
            for param in m.parameters():
                mask = masks.get(id(param))
                if param.grad is None:
                    continue
                if mask is None:
                    param.grad[:] = 0.0
                else:
                    param.grad[~mask] = 0.0

        return undo

    if checkpoint_path is None:
        checkpoint_path = _stage_checkpoint(
            "rsa", _design_key(deployed.bundle, deployed.crossbar_size,
                               deployed.write_variation, config))
    train_model(
        model, chunks,
        TrainConfig(epochs=config.online_epochs, lr=config.online_lr,
                    seed=config.seed + 3),
        loss_fn=loss_fn,
        weight_perturb=masked_perturb,
        checkpoint_path=checkpoint_path,
    )
    if checkpoint_path is not None:
        checkpoint_path.unlink(missing_ok=True)  # retraining finished

    # Push retrained SRAM weights into the banks, restore clean weights.
    deployed.update_sram_weights()
    for param, clean, _ in param_info:
        param.data = clean
    # Reinstall the crossbar hook for deployed inference.
    deployed.attach()
    return deployed


# ----------------------------------------------------------------------
# Technique composition
# ----------------------------------------------------------------------

@dataclass
class EnhancedDesign:
    """A fully built design point ready for evaluation."""

    technique: str
    deployed: DeployedModel
    sram_fraction: float = 0.0
    uses_wrv: bool = False
    metadata: dict = field(default_factory=dict)

    def release(self) -> None:
        self.deployed.release()


def _retrain_cache_key(technique: str, bundle: str, size: int,
                       wv: float, config: EnhanceConfig,
                       model_key: str, cache_tag: str) -> str:
    payload = (f"{technique}|{bundle}|{size}|{wv:.4f}|{model_key}|"
               f"{config.retrain_epochs}|{config.retrain_lr}|"
               f"{config.kd_alpha}|{config.kd_temperature}|{config.seed}|"
               f"{config.num_chunks}|{cache_tag}")
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def build_design(base_model: BonitoModel, technique: str,
                 bundle: NonidealityBundle | str,
                 crossbar_size: int = 64, write_variation: float = 0.10,
                 config: EnhanceConfig | None = None,
                 teacher: BonitoModel | None = None,
                 chunks: Sequence[Chunk] | None = None,
                 seed: int = 0,
                 use_cache: bool = True,
                 cache_tag: str = "",
                 backend: str | None = None) -> EnhancedDesign:
    """Compose a technique stack into a deployable design.

    ``base_model`` is consumed (retrained/hooked in place); pass a fresh
    clone per call.  ``teacher`` defaults to a detached copy of the
    incoming (pre-retraining) model, mirroring the paper's FP32 teacher.
    ``cache_tag`` must distinguish callers whose ``base_model`` state
    differs in ways the other key fields cannot see (e.g. the
    quantization applied before retraining).  ``backend`` selects the
    VMM execution engine of the deployed banks (see
    ``repro.crossbar.engine``); results are backend-independent.
    """
    if isinstance(bundle, str):
        bundle = get_bundle(bundle)
    config = config or EnhanceConfig()
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}; have {TECHNIQUES}")

    if teacher is None and technique in ("kd", "rsa_kd", "all"):
        teacher = BonitoModel(base_model.config)
        teacher.load_state_dict(base_model.state_dict())
        teacher.eval()

    needs_offline = technique in ("vat", "kd", "all")
    if needs_offline:
        cache_key = _retrain_cache_key(
            technique, bundle.name, crossbar_size, write_variation, config,
            base_model.config.cache_key(), cache_tag,
        )
        path = cache_dir() / "retrained" / f"{cache_key}.npz"
        if use_cache and path.exists():
            nn.load_checkpoint(base_model, path)
        else:
            if chunks is None:
                chunks = make_training_chunks(num_chunks=config.num_chunks)
            if technique == "vat":
                vat_retrain(base_model, bundle, crossbar_size,
                            write_variation, chunks, config)
            else:  # kd or all (all starts from KD-retrained weights)
                kd_retrain(base_model, teacher, bundle, crossbar_size,
                           write_variation, chunks, config)
            if use_cache:
                nn.save_checkpoint(base_model, path)

    uses_wrv = technique in ("rvw", "all")
    programming = (WriteReadVerify(iterations=config.wrv_iterations,
                                   fraction=config.wrv_fraction)
                   if uses_wrv else None)
    deployed = DeployedModel(base_model, bundle, crossbar_size=crossbar_size,
                             write_variation=write_variation,
                             programming=programming, seed=seed,
                             backend=backend)

    sram_fraction = 0.0
    if technique in ("rsa_kd", "all"):
        sram_fraction = config.sram_fraction
        if chunks is None:
            chunks = make_training_chunks(num_chunks=config.num_chunks)
        rsa_online_retrain(deployed, chunks, config, teacher=teacher,
                           sram_fraction=sram_fraction)

    return EnhancedDesign(
        technique=technique,
        deployed=deployed,
        sram_fraction=sram_fraction,
        uses_wrv=uses_wrv,
        metadata={"bundle": bundle.name, "size": crossbar_size,
                  "write_variation": write_variation},
    )
