"""The Swordfish façade: one call from design question to metrics.

Ties the four modules together (Fig. 3): Partition & Map → VMM Model
Generator → Accuracy Enhancer → System Evaluator.  A
:class:`SwordfishConfig` names a complete design question ("Bonito,
FPP 16-16, 64×64 crossbars, 10% write variation, measured
non-idealities, mitigated with RSA+KD — what are accuracy, throughput,
and area?"); :class:`Swordfish` answers it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..arch import ArchConfig, GPUConfig
from ..basecaller import BonitoConfig, BonitoModel, default_model
from ..crossbar import BACKENDS, BackendResolutionError, available_backends
from ..nn import QuantizedModel, get_quant_config
from .enhance import EnhanceConfig, EnhancedDesign, TECHNIQUES, build_design
from .evaluator import DesignMetrics, SystemEvaluator
from .nonidealities import BUNDLES, NonidealityBundle, get_bundle

__all__ = ["SwordfishConfig", "Swordfish"]

_DATASETS = ("D1", "D2", "D3", "D4")


@dataclass(frozen=True)
class SwordfishConfig:
    """A complete design question for the framework."""

    quantization: str = "FPP 16-16"
    crossbar_size: int = 64
    write_variation: float = 0.10
    bundle: str = "measured"
    technique: str = "none"
    datasets: tuple[str, ...] = _DATASETS
    reads_per_dataset: int | None = None
    seed: int = 0
    model: BonitoConfig = field(default_factory=BonitoConfig)
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    #: VMM execution backend for the deployed banks ("loop"/"batched");
    #: None defers to SWORDFISH_VMM_BACKEND.  The two are
    #: bitwise-identical, so this is a performance knob only and never
    #: reaches a cache key.
    vmm_backend: str | None = None

    def __post_init__(self) -> None:
        get_quant_config(self.quantization)  # validate early
        if self.bundle not in BUNDLES:
            raise ValueError(f"unknown bundle {self.bundle!r}")
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        if self.vmm_backend is not None and self.vmm_backend not in BACKENDS:
            raise BackendResolutionError(
                self.vmm_backend, "SwordfishConfig.vmm_backend",
                available_backends())

    # ------------------------------------------------------------------
    # Serialization (run provenance, runtime cache keys, cross-process
    # job submission).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data rendering; round-trips through :meth:`from_dict`.

        Fields are enumerated explicitly — never ``asdict(self)`` — so
        the SWD002 analyzer can prove every result-affecting field
        reaches :meth:`cache_key` (a new field that skips this method
        fails ``python -m repro.analysis``).
        """
        model = asdict(self.model)
        model["conv_channels"] = list(self.model.conv_channels)
        return {
            "quantization": self.quantization,
            "crossbar_size": self.crossbar_size,
            "write_variation": self.write_variation,
            "bundle": self.bundle,
            "technique": self.technique,
            "datasets": list(self.datasets),
            "reads_per_dataset": self.reads_per_dataset,
            "seed": self.seed,
            "model": model,
            "enhance": self.enhance.to_dict(),
            "vmm_backend": self.vmm_backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SwordfishConfig":
        """Rebuild a config from a :meth:`to_dict` payload."""
        payload = dict(data)
        model = payload.pop("model", None)
        if isinstance(model, dict):
            model = dict(model)
            if "conv_channels" in model:
                model["conv_channels"] = tuple(model["conv_channels"])
            model = BonitoConfig(**model)
        enhance = payload.pop("enhance", None)
        if isinstance(enhance, dict):
            enhance = EnhanceConfig(**enhance)
        if "datasets" in payload:
            payload["datasets"] = tuple(payload["datasets"])
        if model is not None:
            payload["model"] = model
        if enhance is not None:
            payload["enhance"] = enhance
        return cls(**payload)

    def cache_key(self) -> str:
        """Stable content hash of this design question.

        Human-skimmable prefix plus a digest of the canonical
        serialization — equal configs hash equal across processes and
        sessions, and any result-affecting field change changes the
        key.  ``vmm_backend`` is excluded: backends are numerically
        equivalent, so it must never split the cache.
        """
        payload = self.to_dict()
        payload.pop("vmm_backend", None)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        quant = self.quantization.replace(" ", "").replace("-", "_").lower()
        return (f"swordfish_{quant}_x{self.crossbar_size}"
                f"_{self.bundle}_{self.technique}_{digest}")


class Swordfish:
    """End-to-end runner for one or many design questions.

    The heavyweight pieces (pretrained baseline, retrained variants)
    are cached across runs, so sweeps over configurations — which is
    what the paper's figures are — stay tractable.
    """

    def __init__(self, arch: ArchConfig | None = None,
                 gpu: GPUConfig | None = None):
        self.evaluator = SystemEvaluator(arch=arch, gpu=gpu)

    # ------------------------------------------------------------------
    def baseline_model(self, config: SwordfishConfig) -> BonitoModel:
        """Fresh copy of the trained FP baseline for this model config."""
        return default_model(config.model)

    def prepared_model(self, config: SwordfishConfig) -> BonitoModel:
        """Baseline with the requested quantization applied."""
        model = self.baseline_model(config)
        quant = get_quant_config(config.quantization)
        if not quant.is_float:
            QuantizedModel(model, quant)
        return model

    def build(self, config: SwordfishConfig) -> EnhancedDesign:
        """Run Partition & Map + VMM modeling + enhancement."""
        model = self.prepared_model(config)
        teacher = self.baseline_model(config)  # FP32 teacher for KD
        bundle: NonidealityBundle = get_bundle(config.bundle)
        return build_design(
            model, config.technique, bundle,
            crossbar_size=config.crossbar_size,
            write_variation=config.write_variation,
            config=config.enhance,
            teacher=teacher,
            seed=config.seed,
            backend=config.vmm_backend,
        )

    def run(self, config: SwordfishConfig) -> DesignMetrics:
        """Answer one design question with the full metric set."""
        design = self.build(config)
        try:
            return self.evaluator.evaluate_design(
                design, list(config.datasets),
                reads_per_dataset=config.reads_per_dataset,
            )
        finally:
            design.release()

    # ------------------------------------------------------------------
    def accuracy_only(self, config: SwordfishConfig) -> dict[str, float]:
        """Accuracy per dataset (skips throughput/area models)."""
        design = self.build(config)
        try:
            return self.evaluator.accuracy(
                design.deployed.model, list(config.datasets),
                reads_per_dataset=config.reads_per_dataset,
            )
        finally:
            design.release()
