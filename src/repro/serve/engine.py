"""Per-worker basecalling engines: deployed models with RNG epochs.

Each serve worker owns one :class:`BasecallEngine` — a private
:class:`~repro.core.vmm_model.DeployedModel` built from the same
weights, bundle, and seed as every other worker's, so all engines are
interchangeable.  Cloning per worker (instead of sharing one deployed
instance behind a lock) keeps the tile-engine scratch buffers and
per-tile RNG streams thread-private, which is what lets workers run
truly in parallel.

**Determinism contract.**  Per-call noise (read noise, DAC/ADC
mismatch draws) advances each tile's RNG, so a shared long-lived model
would answer the same read differently depending on how many requests
preceded it.  The engine instead snapshots every tile's RNG state
right after deployment (:meth:`DeployedModel.rng_snapshot`) and
restores it before *every* read — each request runs in the same "RNG
epoch" a fresh offline ``deploy()`` would give its first basecall.
Served results are therefore bitwise-identical to offline ones for the
same read, seed, and bundle, independent of request order, batching,
and concurrency (proven in ``tests/test_serve.py``).

Duplicate reads short-circuit through the runtime's content-addressed
:class:`~repro.runtime.ResultCache` when one is attached: the key
hashes the model weights, the full crossbar design point, the decode
settings, and the raw signal bytes.

**Request stacking.**  Per-sample DAC scaling makes every VMM row
independent of its batch, so compatible (equal-length) coalesced reads
can run as *one* stacked forward (:meth:`BasecallEngine.basecall_batch`)
without changing any read's result: the engine restores the RNG epoch
once per stacked group, and each row of the stacked forward is
bitwise-identical to the same read basecalled alone — regardless of
which other reads share its batch (proven in
``tests/test_batch_invariance.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..basecaller import BonitoModel
from ..basecaller.model import BLANK
from ..core import deploy
from ..core.nonidealities import NonidealityBundle, get_bundle
from ..runtime import ResultCache

__all__ = ["BasecallResult", "BasecallEngine", "EngineConfig",
           "model_fingerprint"]


@dataclass(frozen=True)
class EngineConfig:
    """The deployed design point every worker engine replicates."""

    bundle: str = "write_only"
    crossbar_size: int = 64
    write_variation: float = 0.10
    seed: int = 0
    use_wrv: bool = False
    backend: str | None = None
    beam_width: int = 0

    def to_dict(self) -> dict:
        return {
            "bundle": self.bundle,
            "crossbar_size": self.crossbar_size,
            "write_variation": self.write_variation,
            "seed": self.seed,
            "use_wrv": self.use_wrv,
            # backend is deliberately excluded: the two VMM backends
            # are bitwise-identical, so they share cache entries.
            "beam_width": self.beam_width,
        }


@dataclass(frozen=True)
class BasecallResult:
    """One served basecall, before protocol encoding."""

    bases: str
    frames: int
    cached: bool = False


def model_fingerprint(model: BonitoModel) -> str:
    """Content hash of the architecture and every weight byte."""
    digest = hashlib.sha256(model.config.cache_key().encode("utf-8"))
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:32]


class BasecallEngine:
    """One worker's deployed model + RNG epoch + optional result cache.

    The engine deploys onto a *private copy* of ``model`` (the deploy
    hook mutates the network it wraps), so callers can keep using the
    original and several engines can coexist in one process.
    """

    def __init__(self, model: BonitoModel, config: EngineConfig | None = None,
                 cache: ResultCache | None = None,
                 bundle: NonidealityBundle | None = None):
        self.config = config or EngineConfig()
        self.cache = cache
        self.bundle = bundle if bundle is not None else get_bundle(
            self.config.bundle)
        clone = BonitoModel(model.config)
        clone.load_state_dict(model.state_dict())
        clone.eval()
        self.deployed = deploy(
            clone, self.bundle,
            crossbar_size=self.config.crossbar_size,
            write_variation=self.config.write_variation,
            use_wrv=self.config.use_wrv,
            seed=self.config.seed,
            backend=self.config.backend,
        )
        self.model = clone
        self._epoch = self.deployed.rng_snapshot()
        self._key_prefix = self._cache_prefix(model)

    def _cache_prefix(self, model: BonitoModel) -> str:
        crossbar_key = self.bundle.crossbar_config(
            self.config.crossbar_size,
            self.config.write_variation).cache_key()
        return (f"serve:{model_fingerprint(model)}:{crossbar_key}:"
                f"bundle={self.bundle.name}:seed={self.config.seed}:"
                f"wrv={int(self.config.use_wrv)}:"
                f"beam={self.config.beam_width}")

    def cache_key(self, signal: np.ndarray) -> str:
        """Content address of one read on this engine's design point."""
        signal = np.ascontiguousarray(signal, dtype=np.float64)
        payload = (self._key_prefix.encode("utf-8")
                   + hashlib.sha256(signal.tobytes()).digest())
        return hashlib.sha256(payload).hexdigest()

    # ------------------------------------------------------------------
    # Basecalling
    # ------------------------------------------------------------------
    def basecall(self, signal: np.ndarray) -> BasecallResult:
        """Basecall one read inside a fresh RNG epoch.

        Raises :class:`~repro.reliability.DivergenceError` when the
        deployed model's health guard trips; the caller converts that
        into a structured protocol error.
        """
        signal = np.asarray(signal, dtype=np.float64)
        if signal.ndim != 1 or signal.size == 0:
            raise ValueError("basecall needs a non-empty 1-D signal")
        key = None
        if self.cache is not None:
            key = self.cache_key(signal)
            hit, value = self.cache.lookup(key)
            if hit and isinstance(value, dict) and "bases" in value:
                return BasecallResult(bases=value["bases"],
                                      frames=int(value["frames"]),
                                      cached=True)
        self.deployed.rng_restore(self._epoch)
        bases, frames = self._forward(signal)
        if self.cache is not None and key is not None:
            self.cache.put(key, {"bases": bases, "frames": frames})
        return BasecallResult(bases=bases, frames=frames, cached=False)

    def basecall_batch(
            self, signals: list[np.ndarray],
    ) -> list[BasecallResult | Exception]:
        """Basecall several reads, stacking equal-length ones.

        Cache hits are answered first; the remaining reads are grouped
        by signal length and each group runs as **one** stacked forward
        inside a single RNG-epoch restore.  Per-sample DAC scaling
        (``core.vmm_model`` batching contract) makes each stacked row
        bitwise-identical to :meth:`basecall` on that signal alone, so
        stacking changes throughput, never results.

        Returns one entry per input signal, in order: a
        :class:`BasecallResult`, or the exception that read raised.
        Exceptions are returned (not raised) so one poisoned read — a
        :class:`~repro.reliability.DivergenceError`, say — cannot fail
        its stackmates: a failing stacked group falls back to per-read
        :meth:`basecall` calls, isolating the fault.
        """
        arrays: list[np.ndarray | None] = []
        results: list[BasecallResult | Exception | None] = [None] * len(signals)
        for i, signal in enumerate(signals):
            signal = np.asarray(signal, dtype=np.float64)
            if signal.ndim != 1 or signal.size == 0:
                results[i] = ValueError(
                    "basecall needs a non-empty 1-D signal")
                arrays.append(None)
            else:
                arrays.append(signal)

        keys: list[str | None] = [None] * len(signals)
        groups: dict[int, list[int]] = {}
        for i, signal in enumerate(arrays):
            if signal is None:
                continue
            if self.cache is not None:
                keys[i] = self.cache_key(signal)
                hit, value = self.cache.lookup(keys[i])
                if hit and isinstance(value, dict) and "bases" in value:
                    results[i] = BasecallResult(bases=value["bases"],
                                                frames=int(value["frames"]),
                                                cached=True)
                    continue
            groups.setdefault(signal.size, []).append(i)

        for indices in groups.values():
            stacked = np.stack([arrays[i] for i in indices])
            self.deployed.rng_restore(self._epoch)
            try:
                decoded = self._forward_stacked(stacked)
            except Exception:
                # Fall back to per-read calls (each in its own epoch) so
                # only the actually-poisoned reads report the failure.
                for i in indices:
                    try:
                        results[i] = self.basecall(arrays[i])
                    except Exception as exc:
                        results[i] = exc
                continue
            for i, (bases, frames) in zip(indices, decoded):
                if self.cache is not None and keys[i] is not None:
                    self.cache.put(keys[i], {"bases": bases,
                                             "frames": frames})
                results[i] = BasecallResult(bases=bases, frames=frames,
                                            cached=False)
        return results  # type: ignore[return-value]

    def _forward(self, signal: np.ndarray) -> tuple[str, int]:
        """The exact op sequence of ``basecaller.decode.basecall_signal``."""
        return self._forward_stacked(signal[None, :])[0]

    def _forward_stacked(self,
                         signals: np.ndarray) -> list[tuple[str, int]]:
        """Forward a ``(reads, samples)`` stack, decoding each row.

        ``log_softmax`` is rowwise and CTC decode runs per read, so the
        per-read outputs are bitwise-independent of the stack size.
        """
        from .protocol import encode_bases

        with nn.no_grad():
            logits = self.model(nn.Tensor(signals))
        log_probs = logits.log_softmax(axis=-1).data
        decoded: list[tuple[str, int]] = []
        for row in range(signals.shape[0]):
            lp = log_probs[row]
            if self.config.beam_width and self.config.beam_width > 1:
                labels = nn.beam_search_decode(
                    lp, beam_width=self.config.beam_width, blank=BLANK)
            else:
                labels = nn.greedy_decode(lp, blank=BLANK)
            codes = labels.astype(np.int8) - 1
            decoded.append((encode_bases(codes), int(lp.shape[0])))
        return decoded
