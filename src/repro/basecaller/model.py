"""Bonito-style CTC basecaller model.

Bonito (ONT's open-source basecaller, the paper's case study) is a
convolutional encoder followed by a stack of alternating-direction
LSTMs and a linear decoder emitting CTC scores over
``{blank, A, C, G, T}``.  :class:`BonitoModel` reproduces that
structure at a configurable (much smaller) scale:

* ``Conv1d`` encoder blocks with Swish activations, downsampling the
  raw signal in time;
* ``num_lstm_layers`` LSTMs, directions alternating reverse-first as in
  Bonito;
* optional skip connection from the encoder output to the decoder input
  (the paper notes Bonito spends ~21% of its parameters on skips);
* a ``Linear`` decoder to 5 CTC classes.

The model exposes two integration points used by Swordfish:

* :meth:`set_activation_quant` installs an activation fake-quantizer
  between blocks (``FPP X-Y`` activation precision, Table 3);
* :meth:`set_matmul_hook` routes every VMM through a caller-supplied
  function — the deployed crossbar inference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..nn.layers import per_call_step

__all__ = ["BonitoConfig", "BonitoModel", "NUM_CLASSES", "BLANK"]

#: CTC classes: blank + ACGT.
NUM_CLASSES = 5
BLANK = 0


@dataclass(frozen=True)
class BonitoConfig:
    """Architecture hyperparameters for :class:`BonitoModel`.

    The defaults give a ~50k-parameter model: large enough to basecall
    the synthetic squiggles at high identity, small enough to train on
    one CPU core in minutes.
    """

    conv_channels: tuple[int, ...] = (16, 32)
    conv_kernel: int = 5
    conv_stride: int = 2          # stride of the *last* conv block
    lstm_hidden: int = 48
    num_lstm_layers: int = 2
    use_skip: bool = True
    dropout: float = 0.0
    seed: int = 2024

    def cache_key(self) -> str:
        """Stable string identifying this architecture."""
        convs = "x".join(str(c) for c in self.conv_channels)
        key = (
            f"bonito_c{convs}_k{self.conv_kernel}_s{self.conv_stride}"
            f"_h{self.lstm_hidden}_l{self.num_lstm_layers}"
            f"_skip{int(self.use_skip)}_seed{self.seed}"
        )
        # Dropout changes the trained weights, so it must split the
        # model cache; appended only when nonzero to keep every
        # pre-existing cache key (dropout-free models) valid.
        if self.dropout:
            key += f"_d{self.dropout}"
        return key


#: The real Bonito's dimensions (conv encoder into a 384-wide
#: alternating-direction LSTM stack ×5).  Used ONLY for the analytical
#: throughput/area models (Fig. 14/15), which need paper-scale op
#: counts; it is never trained here.
BONITO_PAPER_CONFIG = BonitoConfig(
    conv_channels=(4, 16, 384),
    conv_kernel=5,
    conv_stride=5,
    lstm_hidden=384,
    num_lstm_layers=5,
    use_skip=True,
    seed=0,
)


class BonitoModel(nn.Module):
    """The scaled Bonito network (see module docstring)."""

    def __init__(self, config: BonitoConfig | None = None):
        super().__init__()
        self.config = config or BonitoConfig()
        cfg = self.config
        rng = nn.init.default_rng(cfg.seed)

        conv_layers: list[nn.Module] = []
        in_channels = 1
        for i, out_channels in enumerate(cfg.conv_channels):
            is_last = i == len(cfg.conv_channels) - 1
            conv_layers.append(nn.Conv1d(
                in_channels, out_channels, cfg.conv_kernel,
                stride=cfg.conv_stride if is_last else 1,
                padding=cfg.conv_kernel // 2, rng=rng,
            ))
            conv_layers.append(nn.Swish())
            in_channels = out_channels
        self.encoder = nn.Sequential(*conv_layers)

        lstm_layers: list[nn.Module] = []
        lstm_input = in_channels
        for i in range(cfg.num_lstm_layers):
            # Bonito alternates directions starting with a reverse LSTM.
            reverse = (i % 2 == 0)
            lstm_layers.append(nn.LSTM(lstm_input, cfg.lstm_hidden,
                                       reverse=reverse, rng=rng))
            lstm_input = cfg.lstm_hidden
        self.recurrent = nn.Sequential(*lstm_layers)

        if cfg.use_skip:
            self.skip_proj = nn.Linear(in_channels, cfg.lstm_hidden, rng=rng)
        else:
            self.skip_proj = None
        self.decoder = nn.Linear(cfg.lstm_hidden, NUM_CLASSES, rng=rng)
        self.dropout = nn.Dropout(cfg.dropout) if cfg.dropout else None
        self._activation_quant: nn.Module | None = None

    # ------------------------------------------------------------------
    # Swordfish integration hooks
    # ------------------------------------------------------------------
    def set_activation_quant(self, quant: nn.Module | None) -> None:
        """Install (or clear) the inter-block activation quantizer."""
        self._activation_quant = quant

    def set_matmul_hook(self, hook, check=None, bind=None) -> None:
        """Route every VMM in the network through
        ``hook(x, w, layer_name, slot)``.

        ``hook=None`` restores exact NumPy matmuls.  ``check(outputs,
        layer_name, slot)``, when given, validates the outputs: once per
        call, except for an LSTM's recurrent outputs, which it sees
        stacked once per forward.  ``bind(w, layer_name, slot, batch)``,
        when given, returns the step ``step(x, out)`` an LSTM runs its
        recurrence through for one forward, writing each product into
        ``out``; without it the LSTM calls ``hook`` per step.  Swordfish
        wraps per-layer crossbar banks around this.
        """
        for name, layer in self.vmm_layers():
            layer.matmul_hook = (
                None if hook is None else _LayerHook(hook, name, check, bind)
            )

    def vmm_layers(self) -> list[tuple[str, nn.Module]]:
        """All layers containing crossbar-mappable weight matrices."""
        layers: list[tuple[str, nn.Module]] = []
        for i, layer in enumerate(self.encoder):
            if isinstance(layer, nn.Conv1d):
                layers.append((f"conv{i // 2}", layer))
        for i, layer in enumerate(self.recurrent):
            layers.append((f"lstm{i}", layer))
        if self.skip_proj is not None:
            layers.append(("skip", self.skip_proj))
        layers.append(("decoder", self.decoder))
        return layers

    def vmm_weight_shapes(self) -> dict[str, list[tuple[int, int]]]:
        """Weight-matrix shapes per VMM layer (for Partition & Map)."""
        return {name: layer.vmm_shapes() for name, layer in self.vmm_layers()}

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _quant(self, x: nn.Tensor) -> nn.Tensor:
        if self._activation_quant is not None:
            return self._activation_quant(x)
        return x

    def forward(self, signal: nn.Tensor) -> nn.Tensor:
        """Map ``(batch, samples)`` signal to ``(batch, frames, 5)`` logits."""
        x = nn.as_tensor(signal)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2:
            raise ValueError("expected (batch, samples) signal input")
        x = x.reshape(x.shape[0], 1, x.shape[1])  # (B, 1, T)
        x = self.encoder(x)
        x = self._quant(x)
        features = x.transpose(0, 2, 1)            # (B, T', C)
        x = self.recurrent(features)
        x = self._quant(x)
        if self.dropout is not None:
            x = self.dropout(x)
        if self.skip_proj is not None:
            x = x + self.skip_proj(features)
            x = self._quant(x)
        return self.decoder(x)

    def frames_for(self, num_samples: int) -> int:
        """Number of output frames produced for ``num_samples`` input."""
        length = num_samples
        for layer in self.encoder:
            if isinstance(layer, nn.Conv1d):
                length = layer.output_length(length)
        return length

    def __repr__(self) -> str:
        return (f"BonitoModel(params={self.num_parameters()}, "
                f"config={self.config.cache_key()})")


class _LayerHook:
    """Bind a (layer-name aware) matmul hook, its output check and its
    recurrent binder to one layer.

    Each call's outputs are checked.  A binder's steps are not: the LSTM
    checks its recurrent outputs itself, stacked, through :meth:`check`.
    Without a binder, :meth:`bind` steps through calls.
    """

    def __init__(self, hook, layer_name: str, check=None, bind=None):
        self.hook = hook
        self.layer_name = layer_name
        self.checker = check
        self.binder = bind

    def __call__(self, inputs: np.ndarray, weights: np.ndarray,
                 slot: int) -> np.ndarray:
        out = self.hook(inputs, weights, self.layer_name, slot)
        self.check(out, slot)
        return out

    def bind(self, weights: np.ndarray, slot: int, batch: int):
        """The recurrent step for one forward over ``batch`` rows."""
        if self.binder is None:
            return per_call_step(self, weights, slot)
        return self.binder(weights, self.layer_name, slot, batch)

    def check(self, outputs: np.ndarray, slot: int) -> None:
        if self.checker is not None:
            self.checker(outputs, self.layer_name, slot)
