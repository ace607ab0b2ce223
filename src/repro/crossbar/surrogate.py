"""GENIEx-style learned surrogate: the third ``vmm_backend``.

GENIEx (arXiv 2003.06902) showed that a compact neural network can
emulate non-ideal crossbar outputs orders of magnitude faster than an
analytical DAC → noise → matmul → droop → ADC chain.  This module owns
the whole lifecycle of that surrogate for :mod:`repro.crossbar.engine`:

* **Dataset generation** — (normalized linear product, per-tile
  conductance summary) → non-ideal output pairs produced by the exact
  ``batched`` backend over a spread of tile shapes and input scales.
* **Training** — a small :mod:`repro.nn` MLP fit with Adam, resumable
  through the reliability layer's checksummed training-state
  checkpoints.
* **Serialization** — a :class:`SurrogateBundle` (weights + explicit
  :class:`SurrogateMeta`) saved as a single ``.npz`` keyed by the
  crossbar design point (``CrossbarConfig.cache_key()``).
* **Validation gate** — :func:`validate` measures normalized error
  quantiles against the ``batched`` reference; a bundle only becomes
  ``validated`` (and therefore servable) through
  :meth:`SurrogateBundle.with_validation`, which refuses reports above
  tolerance.
* **Execution** — :func:`execute_surrogate`, registered as
  ``BACKENDS["surrogate"]``: exact tiled linear product, an
  elementwise residual-MLP correction, exact digital SRAM partial
  sums.  Deterministic — it draws **zero** per-call RNG, which is both
  why it is fast (per-call mismatch draws dominate the exact backends'
  cost on the ``combined`` bundle) and why its results must never
  share a cache entry with exact ones (see ``BACKEND_CACHE_SALTS``).

Model form.  The analytical chain is *almost* the scaled linear
product: with per-sample DAC scale ``s`` and per-tile normalization
``n = rows * w_max * s``, the exact tile output satisfies
``y ≈ (u + f(u, tile)) * n`` where ``u = (x @ G_analog) / n`` is the
normalized ideal analog product and ``f`` collects quantization,
droop, sneak coupling, and converter transfer effects — all functions
of ``u`` and slowly-varying per-tile statistics.  The surrogate learns
``f`` as an elementwise MLP over ``(u, tile features)``; the final
layer starts at zero, so an untrained surrogate is the ideal analog
array.  Noise in the training targets is averaged out by the MSE fit:
the surrogate predicts the *conditional mean* of the non-ideal chain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .. import nn
from ..observability import trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .crossbar import CrossbarConfig
    from .engine import TileEngine, TileStacks

# Reusable no-op context for untraced calls.
_NULL = nullcontext()

__all__ = [
    "ENV_SURROGATE_DIR",
    "N_FEATURES",
    "SurrogateDataset",
    "SurrogateError",
    "SurrogateMeta",
    "SurrogateBundle",
    "SurrogateRuntime",
    "SurrogateUnavailableError",
    "SurrogateValidationError",
    "ValidationReport",
    "clear_registry",
    "execute_surrogate",
    "generate_dataset",
    "register_bundle",
    "resolve_bundle",
    "tile_features",
    "train_surrogate",
    "validate",
]

#: Directory searched for saved bundles when none is attached/registered.
ENV_SURROGATE_DIR = "SWORDFISH_SURROGATE_DIR"

#: Per-tile conductance-summary features fed to the MLP alongside the
#: normalized analog product (order is part of the bundle format).
N_FEATURES = 4

DEFAULT_HIDDEN = 16

#: On-disk bundle format (``.npz`` layout + feature definition).
BUNDLE_FORMAT = 1

_WEIGHT_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")


class SurrogateError(RuntimeError):
    """Base class for surrogate-backend failures."""


class SurrogateUnavailableError(SurrogateError):
    """No trained bundle could be resolved for a crossbar design point."""


class SurrogateValidationError(SurrogateError):
    """A validation report exceeded its declared error tolerance."""

    def __init__(self, message: str, report: "ValidationReport"):
        super().__init__(message)
        self.report = report


# ----------------------------------------------------------------------
# Tile features (shared by dataset generation and execution)
# ----------------------------------------------------------------------

def tile_features(stacks: "TileStacks", size: int) -> np.ndarray:
    """Per-tile conductance summary, shape ``(tiles, N_FEATURES)``.

    Features are scale-free (geometry fractions and w_max-normalized
    moments of the analog weights), so one surrogate generalizes
    across banks of different magnitudes programmed at the same design
    point.  Padded cells are zero in ``analog`` and excluded via the
    true ``rows * cols`` cell counts.
    """
    size_f = max(float(size), 2.0)
    counts = np.maximum(stacks.rows * stacks.cols, 1.0)
    w_scale = np.maximum(stacks.w_max, 1e-9)
    abs_mean = np.abs(stacks.analog).sum(axis=(1, 2)) / counts
    sq_mean = np.square(stacks.analog).sum(axis=(1, 2)) / counts
    spread = np.sqrt(np.maximum(sq_mean - np.square(
        stacks.analog.sum(axis=(1, 2)) / counts), 0.0))
    return np.stack([
        stacks.rows / size_f,
        stacks.cols.astype(np.float64) / size_f,
        abs_mean / w_scale,
        spread / w_scale,
    ], axis=1)


# ----------------------------------------------------------------------
# Metadata + bundle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurrogateMeta:
    """Everything about a trained surrogate except the weights.

    Non-weight state (tolerance, training seed, reference version,
    validation outcome) changes what the surrogate *means* even when
    the weights match, so every field here reaches
    :meth:`cache_key` — the explicit-field contract SWD002 enforces.
    """

    crossbar_key: str
    features: int = N_FEATURES
    hidden: int = DEFAULT_HIDDEN
    tolerance: float = 0.0
    gate_quantile: str = "p95"
    validated: bool = False
    quantiles: dict = field(default_factory=dict)
    train_seed: int = 0
    train_epochs: int = 0
    train_tiles: int = 0
    train_samples: int = 0
    final_loss: float = 0.0
    reference_backend: str = "batched"
    reference_version: str = ""

    def to_dict(self) -> dict:
        """Plain-data rendering; round-trips through :meth:`from_dict`."""
        return {
            "crossbar_key": self.crossbar_key,
            "features": self.features,
            "hidden": self.hidden,
            "tolerance": self.tolerance,
            "gate_quantile": self.gate_quantile,
            "validated": self.validated,
            "quantiles": dict(self.quantiles),
            "train_seed": self.train_seed,
            "train_epochs": self.train_epochs,
            "train_tiles": self.train_tiles,
            "train_samples": self.train_samples,
            "final_loss": self.final_loss,
            "reference_backend": self.reference_backend,
            "reference_version": self.reference_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SurrogateMeta":
        return cls(**{name: data[name] for name in cls.__dataclass_fields__
                      if name in data})

    def cache_key(self) -> str:
        """Content hash over every metadata field (weights hash apart)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SurrogateBundle:
    """Trained surrogate weights + :class:`SurrogateMeta`, load/save-able.

    The bundle is keyed by the crossbar design point it was trained
    for (``meta.crossbar_key == CrossbarConfig.cache_key()``); the
    engine refuses to execute it against any other design.
    """

    def __init__(self, weights: dict[str, np.ndarray], meta: SurrogateMeta):
        missing = [key for key in _WEIGHT_KEYS if key not in weights]
        if missing:
            raise SurrogateError(f"bundle is missing weight arrays {missing}")
        self.weights = {key: np.ascontiguousarray(weights[key],
                                                  dtype=np.float64)
                        for key in _WEIGHT_KEYS}
        w1 = self.weights["w1"]
        if w1.shape != (1 + meta.features, meta.hidden):
            raise SurrogateError(
                f"w1 shape {w1.shape} does not match meta "
                f"(1+{meta.features}, {meta.hidden})")
        self.meta = meta

    # -- identity ------------------------------------------------------
    @property
    def validated(self) -> bool:
        return self.meta.validated

    def weights_digest(self) -> str:
        digest = hashlib.sha256()
        for key in _WEIGHT_KEYS:
            digest.update(key.encode("utf-8"))
            digest.update(self.weights[key].tobytes())
        return digest.hexdigest()[:16]

    def cache_key(self) -> str:
        """Content hash of weights *and* non-weight metadata.

        ``model_fingerprint``-style weights-only hashing is not enough
        here: two bundles with identical weights but different
        declared tolerance, training seed, or validation outcome are
        different artifacts and must never share a cache identity.
        """
        payload = f"{self.meta.cache_key()}:{self.weights_digest()}"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        return f"surrogate_{digest}"

    def with_validation(self, report: "ValidationReport") -> "SurrogateBundle":
        """A validated copy of this bundle; refuses failing reports."""
        if not report.passed:
            raise SurrogateValidationError(
                f"surrogate exceeds tolerance: {report.gate_quantile} "
                f"normalized error {report.quantiles[report.gate_quantile]:.4g}"
                f" > {report.tolerance:.4g}", report)
        meta = replace(self.meta, validated=True,
                       tolerance=report.tolerance,
                       gate_quantile=report.gate_quantile,
                       quantiles=dict(report.quantiles))
        return SurrogateBundle(self.weights, meta)

    # -- persistence ---------------------------------------------------
    @staticmethod
    def path_for(directory: str | Path, crossbar_key: str) -> Path:
        return Path(directory) / f"{crossbar_key}.surrogate.npz"

    def save(self, path: str | Path) -> Path:
        """Atomically write the bundle as one ``.npz``."""
        from ..nn.serialize import _atomic_write

        path = Path(path)
        arrays = dict(self.weights)
        header = {"format": BUNDLE_FORMAT, "meta": self.meta.to_dict()}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        _atomic_write(path, lambda fh: np.savez(fh, **arrays))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SurrogateBundle":
        path = Path(path)
        try:
            with np.load(path) as archive:
                if "__meta__" not in archive.files:
                    raise SurrogateError(f"{path} has no surrogate metadata")
                header = json.loads(archive["__meta__"].tobytes().decode())
                weights = {key: archive[key] for key in archive.files
                           if key != "__meta__"}
        except FileNotFoundError:
            raise SurrogateUnavailableError(
                f"no surrogate bundle at {path}") from None
        if header.get("format") != BUNDLE_FORMAT:
            raise SurrogateError(
                f"{path} has bundle format {header.get('format')!r}; this "
                f"build reads format {BUNDLE_FORMAT}")
        return cls(weights, SurrogateMeta.from_dict(header["meta"]))


# ----------------------------------------------------------------------
# Bundle resolution (in-process registry, then SWORDFISH_SURROGATE_DIR)
# ----------------------------------------------------------------------

_REGISTRY: dict[str, SurrogateBundle] = {}


def register_bundle(bundle: SurrogateBundle) -> None:
    """Make ``bundle`` resolvable in-process by its crossbar key."""
    _REGISTRY[bundle.meta.crossbar_key] = bundle


def clear_registry() -> None:
    _REGISTRY.clear()


def resolve_bundle(config: "CrossbarConfig") -> SurrogateBundle:
    """Find the trained bundle for ``config``'s design point.

    Resolution order: an explicitly :func:`register_bundle`-ed bundle,
    then a ``<key>.surrogate.npz`` file under ``SWORDFISH_SURROGATE_DIR``.
    Raises a structured :class:`SurrogateUnavailableError` otherwise —
    the surrogate backend never falls back silently to an exact one.
    """
    key = config.cache_key()
    bundle = _REGISTRY.get(key)
    if bundle is not None:
        return bundle
    directory = os.environ.get(ENV_SURROGATE_DIR)
    if directory:
        path = SurrogateBundle.path_for(directory, key)
        if path.is_file():
            bundle = SurrogateBundle.load(path)
            if bundle.meta.crossbar_key != key:
                raise SurrogateError(
                    f"bundle {path} was trained for design "
                    f"{bundle.meta.crossbar_key}, not {key}")
            register_bundle(bundle)
            return bundle
    raise SurrogateUnavailableError(
        f"no trained surrogate for design point {key}: register one with "
        f"repro.crossbar.surrogate.register_bundle(), attach one to the "
        f"engine, or point {ENV_SURROGATE_DIR} at a directory containing "
        f"{key}.surrogate.npz (train with `python -m "
        f"repro.crossbar.surrogate train`)")


# ----------------------------------------------------------------------
# Dataset generation (targets from the exact batched backend)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurrogateDataset:
    """Flattened elementwise training pairs for one design point."""

    inputs: np.ndarray    # (N, 1 + N_FEATURES): [u, tile features]
    targets: np.ndarray   # (N, 1): v - u residuals in normalized space
    crossbar_key: str
    tiles: int
    samples: int


def generate_dataset(config: "CrossbarConfig", *, tiles: int = 24,
                     samples: int = 32, seed: int = 0) -> SurrogateDataset:
    """Label a spread of single-tile banks with the ``batched`` backend.

    Each synthetic tile varies shape (full and ragged), weight scale,
    sparsity, and input magnitude; the exact backend's output —
    per-call noise included — becomes the regression target in the
    normalized ``u`` space.  MSE training then recovers the chain's
    conditional mean.  Narrow tiles get proportionally more input
    samples so every tile contributes a comparable number of
    elementwise pairs — otherwise a 1-column tile carries ``size``×
    less MSE weight than a full one and the fit is visibly biased on
    skinny banks.
    """
    from .crossbar import CrossbarBank

    exact = replace(config, backend="batched")
    size = config.size
    rng = np.random.default_rng(seed)
    inputs: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for i in range(tiles):
        # The first tiles pin the full-size shape; the rest are ragged.
        if i < max(2, tiles // 4):
            rows, cols = size, size
        else:
            rows = int(rng.integers(2, size + 1))
            cols = int(rng.integers(1, size + 1))
        w = rng.standard_normal((rows, cols)) * (10.0 ** rng.uniform(-1, 0.5))
        if rng.random() < 0.25:
            w[rng.random((rows, cols)) < 0.5] = 0.0
        bank = CrossbarBank(w, exact, int(rng.integers(2 ** 31)),
                            name=f"surrogate_data_{i}")
        tile_samples = min(samples * size // max(cols, 1), 16 * samples)
        x = rng.standard_normal((tile_samples, rows)) \
            * (10.0 ** rng.uniform(-1, 1))
        y_exact = bank.vmm(x)                               # (samples, cols)

        st = bank.engine.stacks()
        feats = tile_features(st, size)[0]                  # (N_FEATURES,)
        x_pad = np.zeros((tile_samples, size))
        x_pad[:, :rows] = x
        y_lin = (x_pad @ st.analog[0])[:, :cols]
        x_scale = np.maximum(np.abs(x).max(axis=1, keepdims=True), 1e-12)
        norm = np.maximum(max(float(rows), 1.0)
                          * max(float(st.w_max[0]), 1e-9) * x_scale, 1e-30)
        u = y_lin / norm
        v = y_exact / norm
        n = u.size
        inputs.append(np.concatenate(
            [u.reshape(n, 1), np.broadcast_to(feats, (n, N_FEATURES))],
            axis=1))
        targets.append((v - u).reshape(n, 1))
    return SurrogateDataset(
        inputs=np.concatenate(inputs, axis=0),
        targets=np.concatenate(targets, axis=0),
        crossbar_key=config.cache_key(), tiles=tiles, samples=samples)


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

class _SurrogateNet(nn.Module):
    """Elementwise residual MLP: (u, features) → correction delta."""

    def __init__(self, features: int = N_FEATURES,
                 hidden: int = DEFAULT_HIDDEN,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.fc1 = nn.Linear(1 + features, hidden, rng=rng)
        self.fc2 = nn.Linear(hidden, hidden, rng=rng)
        self.fc3 = nn.Linear(hidden, 1, rng=rng)
        # Zero-initialized head: the untrained surrogate starts as the
        # identity (ideal analog array), never as random garbage.
        self.fc3.weight.data[:] = 0.0

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.fc3(self.fc2(self.fc1(x).tanh()).tanh())


def train_surrogate(config: "CrossbarConfig", *,
                    dataset: SurrogateDataset | None = None,
                    tiles: int = 24, samples: int = 32,
                    hidden: int = DEFAULT_HIDDEN, epochs: int = 300,
                    lr: float = 1e-2, seed: int = 0,
                    checkpoint_path: str | Path | None = None,
                    checkpoint_every: int = 0) -> SurrogateBundle:
    """Fit a surrogate for ``config``'s design point; returns the bundle.

    Full-batch Adam on the elementwise residual dataset.  When
    ``checkpoint_path`` is given the loop resumes from any existing
    checksummed training-state snapshot there and (with
    ``checkpoint_every``) periodically re-saves — the same
    atomic-resume machinery the basecaller trainer uses.  The returned
    bundle is **unvalidated**: run :func:`validate` and
    :meth:`SurrogateBundle.with_validation` before serving it.
    """
    from .. import __version__

    if dataset is None:
        dataset = generate_dataset(config, tiles=tiles, samples=samples,
                                   seed=seed)
    elif dataset.crossbar_key != config.cache_key():
        raise SurrogateError(
            f"dataset was generated for design {dataset.crossbar_key}, "
            f"not {config.cache_key()}")

    rng = np.random.default_rng(seed + 1)
    net = _SurrogateNet(hidden=hidden, rng=rng)
    optimizer = nn.Adam(net.parameters(), lr=lr)
    start_epoch = 0
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        state = nn.load_training_state(checkpoint_path, model=net,
                                       optimizer=optimizer, rng=rng)
        start_epoch = int(state["epoch"])

    x = nn.Tensor(dataset.inputs)
    y = nn.Tensor(dataset.targets)
    loss_value = 0.0
    for epoch in range(start_epoch, epochs):
        optimizer.zero_grad()
        loss = ((net(x) - y) ** 2).mean()
        loss.backward()
        optimizer.step()
        loss_value = float(loss.data)
        if (checkpoint_path is not None and checkpoint_every > 0
                and (epoch + 1) % checkpoint_every == 0):
            nn.save_training_state(checkpoint_path, model=net,
                                   optimizer=optimizer, rng=rng,
                                   epoch=epoch + 1,
                                   extra={"crossbar_key":
                                          dataset.crossbar_key})

    weights = {
        "w1": net.fc1.weight.data.copy(), "b1": net.fc1.bias.data.copy(),
        "w2": net.fc2.weight.data.copy(), "b2": net.fc2.bias.data.copy(),
        "w3": net.fc3.weight.data.copy(), "b3": net.fc3.bias.data.copy(),
    }
    meta = SurrogateMeta(
        crossbar_key=dataset.crossbar_key, features=N_FEATURES,
        hidden=hidden, train_seed=seed, train_epochs=epochs,
        train_tiles=dataset.tiles, train_samples=dataset.samples,
        final_loss=loss_value, reference_backend="batched",
        reference_version=__version__)
    return SurrogateBundle(weights, meta)


# ----------------------------------------------------------------------
# Execution runtime
# ----------------------------------------------------------------------

class SurrogateRuntime:
    """Per-engine execution state: features folded into the first layer.

    With the tile features fixed between stack syncs, the MLP is a
    scalar function of ``u`` per tile — and ``u`` is bounded (the
    per-sample DAC scale caps ``|x|`` at 1 and the w_max normalization
    caps the weight sum), so the runtime pre-evaluates the network on
    a dense ``u`` grid per tile at build time and serves per-call
    corrections by linear interpolation.  Knot spacing ~2e-3 over a
    tanh-smooth network keeps interpolation error around 1e-6 —
    far below any servable tolerance — while cutting per-call cost to
    one gather plus a multiply-add over ``(T, B, S)``.
    """

    #: Tabulation grid: ``u`` lives in ~[-1, 1]; the margin absorbs
    #: write-noise excursions of the effective conductances past w_max.
    GRID_LO = -1.25
    GRID_HI = 1.25
    KNOTS = 1281

    def __init__(self, engine: "TileEngine", bundle: SurrogateBundle):
        key = engine.config.cache_key()
        if bundle.meta.crossbar_key != key:
            raise SurrogateError(
                f"surrogate bundle was trained for design point "
                f"{bundle.meta.crossbar_key} but this bank is {key}; "
                f"train or load a bundle for this design")
        if bundle.meta.features != N_FEATURES:
            raise SurrogateError(
                f"bundle expects {bundle.meta.features} tile features; "
                f"this build computes {N_FEATURES}")
        st = engine.stacks()
        w = bundle.weights
        feats = tile_features(st, engine.config.size)       # (T, F)
        self.bundle = bundle
        self.norm_base = np.maximum(
            np.maximum(st.rows, 1.0) * np.maximum(st.w_max, 1e-9),
            1e-30)[:, None, None]                           # (T, 1, 1)
        # Tabulate the MLP per tile: first layer splits as
        # tanh(u * w_u + feats @ W_f + b1), so the feature projection
        # folds into the grid evaluation once.
        grid = np.linspace(self.GRID_LO, self.GRID_HI, self.KNOTS)
        feat_proj = feats @ w["w1"][1:] + w["b1"]           # (T, H)
        h = np.tanh(grid[None, :, None] * w["w1"][0]
                    + feat_proj[:, None, :])                # (T, K, H)
        h = np.tanh(h @ w["w2"] + w["b2"])
        self._lut = np.ascontiguousarray(
            h @ w["w3"].ravel() + float(w["b3"][0]))        # (T, K)
        self._inv_step = (self.KNOTS - 1) / (self.GRID_HI - self.GRID_LO)
        self._tile_offset = (np.arange(self._lut.shape[0])
                             * self.KNOTS)[:, None, None]   # (T, 1, 1)

    def correct(self, u: np.ndarray) -> np.ndarray:
        """Elementwise residual for ``u`` of shape ``(T, B, S)``.

        Linear interpolation into the per-tile response curve; inputs
        beyond the tabulated range clamp to the boundary knots.
        """
        pos = (np.clip(u, self.GRID_LO, self.GRID_HI)
               - self.GRID_LO) * self._inv_step
        idx = pos.astype(np.int64)
        np.minimum(idx, self.KNOTS - 2, out=idx)
        frac = pos - idx
        idx += self._tile_offset
        flat = self._lut.ravel()
        lo = np.take(flat, idx)
        hi = np.take(flat, idx + 1)
        return lo + (hi - lo) * frac


def execute_surrogate(engine: "TileEngine", x: np.ndarray) -> np.ndarray:
    """Surrogate backend: linear analog product + learned correction.

    Shares the exact backends' tiling, per-sample DAC-scale
    normalization, digital SRAM contribution, and partial-sum
    assembly; only the non-ideal analog chain is replaced by the MLP.
    Draws no per-call RNG, so tile streams stay untouched — repeated
    calls are bitwise-identical to each other, which is precisely why
    surrogate results carry their own cache salt.
    """
    runtime = engine.surrogate_runtime()
    st = engine.stacks()
    size = engine.config.size
    batch = x.shape[0]
    grid_rows, grid_cols = engine.grid
    rows_total, cols_total = engine.bank.shape
    traced = engine._traced

    # Gather per-tile input blocks and the per-sample DAC scale, exactly
    # as the batched backend does (padding is zero, scale floored).
    with (trace_span("vmm.surrogate.gather") if traced else _NULL):
        x_padded = np.zeros((batch, grid_rows * size))
        x_padded[:, :rows_total] = x
        x_blocks = x_padded.reshape(batch, grid_rows, size).transpose(1, 0, 2)
        xt = np.take(x_blocks, st.row_block, axis=0)        # (T, B, S)
        scale_bg = np.maximum(
            np.abs(x_padded).reshape(batch, grid_rows, size).max(axis=2),
            1e-12)                                          # (B, G)
        scale_t = np.take(scale_bg.T, st.row_block, axis=0)  # (T, B)

    # Exact tiled linear product on the programmed analog conductances.
    with (trace_span("vmm.surrogate.linear") if traced else _NULL):
        y = np.matmul(xt, st.analog)                        # (T, B, S)
        norm = np.maximum(runtime.norm_base * scale_t[:, :, None], 1e-30)
        u = y / norm

    # Learned correction in normalized space, rescaled back.
    with (trace_span("vmm.surrogate.mlp") if traced else _NULL):
        u += runtime.correct(u)
        np.multiply(u, norm, out=y)

    # Exact digital path: SRAM-resident weights + cross-block partial
    # sums (identical to the batched backend's assembly).
    with (trace_span("vmm.digital") if traced else _NULL):
        if st.has_sram:
            y += np.matmul(xt, st.digital)
        summed = y.reshape(grid_rows, grid_cols, batch, size).sum(axis=0)
        out_full = np.empty((batch, grid_cols * size))
        out3 = out_full.reshape(batch, grid_cols, size)
        np.copyto(out3, summed.transpose(1, 0, 2))
        return out_full[:, :cols_total].copy()


# ----------------------------------------------------------------------
# Validation gate
# ----------------------------------------------------------------------

_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


@dataclass(frozen=True)
class ValidationReport:
    """Normalized-error quantiles of a surrogate vs the exact reference."""

    quantiles: dict          # overall, e.g. {"p50": ..., "max": ...}
    per_stage: dict          # per bank/engine stage, same quantile keys
    tolerance: float
    gate_quantile: str
    samples: int
    passed: bool


def _quantile_row(errors: np.ndarray) -> dict:
    row = {name: float(np.quantile(errors, q)) for name, q in _QUANTILES}
    row["max"] = float(errors.max())
    return row


def _engines_of(target) -> list[tuple[str, "TileEngine"]]:
    """(stage name, engine) pairs for an engine/bank/deployed model."""
    from .crossbar import CrossbarBank
    from .engine import TileEngine

    if isinstance(target, TileEngine):
        return [(target.bank.name, target)]
    if isinstance(target, CrossbarBank):
        return [(target.name, target.engine)]
    engines = getattr(target, "engines", None)  # DeployedModel
    if engines is not None:
        return [(f"{name}[{slot}]", engine)
                for name, per_layer in engines.items()
                for slot, engine in enumerate(per_layer)]
    raise TypeError(
        f"cannot validate a {type(target).__name__}: pass a TileEngine, "
        f"CrossbarBank, or DeployedModel")


def validate(target, tol: float = 0.05, *,
             bundle: SurrogateBundle | None = None, samples: int = 64,
             seed: int = 0, gate_quantile: str = "p95") -> ValidationReport:
    """Measure surrogate error against the exact ``batched`` reference.

    Runs both backends on shared random inputs over every VMM stage of
    ``target`` (a :class:`~repro.crossbar.TileEngine`,
    :class:`~repro.crossbar.CrossbarBank`, or
    :class:`~repro.core.vmm_model.DeployedModel`) and reports
    per-stage and overall error quantiles.  Errors are measured as a
    fraction of the bank's **full-scale output**
    (``rows × w_max × per-sample max |x|``) — the converter-spec
    convention.  A per-sample relative error would divide by the
    reference output itself, which for narrow banks is a single noisy
    scalar that can sit arbitrarily close to zero; percent-of-full-
    scale stays well-conditioned at every shape.  The gate passes when
    the ``gate_quantile`` of the overall error is within ``tol``.  The
    reference draws real per-call noise, so the measured error
    honestly includes the noise the deterministic surrogate averages
    away.  Stamp a passing report onto the bundle with
    :meth:`SurrogateBundle.with_validation` — serving refuses
    unvalidated surrogates.
    """
    from .engine import _execute_batched

    if gate_quantile not in dict(_QUANTILES) and gate_quantile != "max":
        raise ValueError(f"unknown gate quantile {gate_quantile!r}")
    rng = np.random.default_rng(seed)
    per_stage: dict[str, dict] = {}
    all_errors: list[np.ndarray] = []
    for stage, engine in _engines_of(target):
        stage_bundle = bundle
        if stage_bundle is None:
            stage_bundle = (engine._surrogate_bundle
                            or resolve_bundle(engine.config))
        runtime = SurrogateRuntime(engine, stage_bundle)
        rows_total = engine.bank.shape[0]
        # Two input magnitudes exercise the DAC-scale normalization.
        x = rng.standard_normal((samples, rows_total))
        x[samples // 2:] *= 10.0
        engine._traced = False
        exact = _execute_batched(engine, x)
        saved_runtime = engine._surrogate_runtime
        engine._surrogate_runtime = runtime
        approx = execute_surrogate(engine, x)
        engine._surrogate_runtime = saved_runtime
        st = engine.stacks()
        full_scale = np.maximum(
            rows_total * max(float(st.w_max.max()), 1e-9)
            * np.abs(x).max(axis=1, keepdims=True), 1e-30)
        errors = (np.abs(approx - exact) / full_scale).ravel()
        per_stage[stage] = _quantile_row(errors)
        all_errors.append(errors)
    overall = _quantile_row(np.concatenate(all_errors))
    return ValidationReport(
        quantiles=overall, per_stage=per_stage, tolerance=float(tol),
        gate_quantile=gate_quantile, samples=samples,
        passed=bool(overall[gate_quantile] <= tol))


# ----------------------------------------------------------------------
# CLI: train + validate + save a bundle for one design point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crossbar.surrogate",
        description="Train, validate, and save a surrogate VMM bundle.")
    sub = parser.add_subparsers(dest="command", required=True)
    train = sub.add_parser("train", help="train + validate one bundle")
    train.add_argument("--bundle", default="combined",
                       help="non-ideality bundle name (default: combined)")
    train.add_argument("--size", type=int, default=64)
    train.add_argument("--write-variation", type=float, default=0.10)
    train.add_argument("--tol", type=float, default=0.05,
                       help="gate: p95 error tolerance, as a fraction of "
                            "full-scale output")
    train.add_argument("--tiles", type=int, default=24)
    train.add_argument("--samples", type=int, default=32)
    train.add_argument("--epochs", type=int, default=300)
    train.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    train.add_argument("--lr", type=float, default=1e-2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="surrogate_models",
                       help="output directory (default: surrogate_models)")
    args = parser.parse_args(argv)

    from ..core.nonidealities import get_bundle
    from .crossbar import CrossbarBank

    config = get_bundle(args.bundle).crossbar_config(
        args.size, args.write_variation)
    print(f"training surrogate for {config.cache_key()} "
          f"({args.bundle} @ {args.size}x{args.size})")
    trained = train_surrogate(
        config, tiles=args.tiles, samples=args.samples, hidden=args.hidden,
        epochs=args.epochs, lr=args.lr, seed=args.seed)
    print(f"  final training loss: {trained.meta.final_loss:.6f}")

    probe_rng = np.random.default_rng(args.seed + 7)
    probe = CrossbarBank(
        probe_rng.standard_normal((2 * args.size, 2 * args.size)),
        replace(config, backend="batched"), args.seed + 7, name="probe")
    report = validate(probe, args.tol, bundle=trained, seed=args.seed + 7)
    for name, value in report.quantiles.items():
        print(f"  normalized error {name}: {value:.4f}")
    try:
        trained = trained.with_validation(report)
    except SurrogateValidationError as exc:
        print(f"VALIDATION FAILED: {exc}")
        return 1
    path = trained.save(SurrogateBundle.path_for(
        args.out, trained.meta.crossbar_key))
    print(f"validated ({report.gate_quantile} <= {args.tol}); wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
