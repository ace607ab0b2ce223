"""Neural network layers for :mod:`repro.nn`.

Implements every layer type the Bonito basecaller needs (and PUMA
supports): ``Linear``, ``Conv1d``, ``LSTM``, plus batch normalization,
dropout and activation modules.

Conventions
-----------
* Sequence tensors are ``(batch, time, channels)`` except ``Conv1d``,
  which follows the basecaller convention ``(batch, channels, time)``.
* Every layer exposing a VMM (``Linear``, ``Conv1d``, ``LSTM``) also
  exposes ``vmm_shapes()`` so the Swordfish Partition & Map module can
  tile its weights onto crossbars, and accepts an optional ``matmul``
  hook so the deployed inference path can route the multiply through a
  (non-ideal) crossbar model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import init as _init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = [
    "Linear",
    "Conv1d",
    "LSTM",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "Swish",
    "per_call_step",
]

# A matmul hook takes (inputs, weights, slot) as plain arrays plus the
# index of the weight matrix within the layer (LSTMs own two); the
# Swordfish deployment path substitutes a crossbar VMM here.  An LSTM
# runs its recurrence through ``hook.bind(weights, slot, batch)`` when
# the hook has it, else through :func:`per_call_step`; a hook with a
# ``check(outputs, slot)`` method sees the recurrent outputs stacked,
# once per forward.
MatmulHook = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def per_call_step(hook: MatmulHook, weights: np.ndarray, slot: int):
    """A recurrent step ``step(inputs, out)`` that calls ``hook`` once
    per step and copies its product into ``out``."""
    def step(inputs: np.ndarray, out: np.ndarray) -> None:
        out[...] = hook(inputs, weights, slot)
    return step


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with ``W`` of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _init.kaiming_uniform((in_features, out_features), rng, fan_in=in_features)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.matmul_hook: MatmulHook | None = None

    def vmm_shapes(self) -> list[tuple[int, int]]:
        """Weight-matrix shapes that must be mapped to crossbars."""
        return [(self.in_features, self.out_features)]

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if self.matmul_hook is not None:
            flat = x.data.reshape(-1, self.in_features)
            out = self.matmul_hook(flat, self.weight.data, 0)
            out = out.reshape(*x.shape[:-1], self.out_features)
            if self.bias is not None:
                out = out + self.bias.data
            return Tensor(out)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv1d(Module):
    """1-D convolution over ``(batch, channels, time)`` via im2col.

    The im2col formulation turns the convolution into a single dense
    matmul with weight matrix ``(in_channels * kernel, out_channels)`` —
    exactly the matrix Swordfish maps onto memristor crossbars.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _init.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            _init.kaiming_uniform((fan_in, out_channels), rng, fan_in=fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.matmul_hook: MatmulHook | None = None

    def vmm_shapes(self) -> list[tuple[int, int]]:
        return [(self.in_channels * self.kernel_size, self.out_channels)]

    def output_length(self, time: int) -> int:
        return (time + 2 * self.padding - self.kernel_size) // self.stride + 1

    def _im2col_index(self, padded_time: int) -> np.ndarray:
        out_t = (padded_time - self.kernel_size) // self.stride + 1
        starts = np.arange(out_t) * self.stride
        return starts[:, None] + np.arange(self.kernel_size)[None, :]

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        batch, channels, time = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"Conv1d expected {self.in_channels} channels, got {channels}"
            )
        if self.padding:
            x = x.pad(((0, 0), (0, 0), (self.padding, self.padding)))
            time = time + 2 * self.padding
        index = self._im2col_index(time)  # (out_t, k)
        out_t = index.shape[0]
        # (B, C, out_t, k) -> (B, out_t, C*k)
        cols = x[:, :, index]
        cols = cols.transpose(0, 2, 1, 3).reshape(batch, out_t, channels * self.kernel_size)
        if self.matmul_hook is not None:
            flat = cols.data.reshape(-1, channels * self.kernel_size)
            out = self.matmul_hook(flat, self.weight.data, 0)
            out = out.reshape(batch, out_t, self.out_channels)
            if self.bias is not None:
                out = out + self.bias.data
            return Tensor(out).transpose(0, 2, 1)
        out = cols @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out.transpose(0, 2, 1)  # (B, out_channels, out_t)

    def __repr__(self) -> str:
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class LSTM(Module):
    """Single-layer unidirectional LSTM over ``(batch, time, channels)``.

    ``reverse=True`` processes the sequence right-to-left (Bonito stacks
    alternating-direction LSTMs instead of concatenating bidirectional
    outputs, halving the width of the following layer).

    Gate ordering inside the fused weight matrices is ``i, f, g, o``.
    """

    def __init__(self, input_size: int, hidden_size: int, reverse: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _init.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reverse = reverse
        self.weight_ih = Parameter(
            _init.xavier_uniform((input_size, 4 * hidden_size), rng,
                                 fan_in=input_size, fan_out=hidden_size)
        )
        recurrent = np.concatenate(
            [_init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)],
            axis=1,
        )
        self.weight_hh = Parameter(recurrent)
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)
        self.matmul_hook: MatmulHook | None = None

    def vmm_shapes(self) -> list[tuple[int, int]]:
        return [
            (self.input_size, 4 * self.hidden_size),
            (self.hidden_size, 4 * self.hidden_size),
        ]

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if self.matmul_hook is not None:
            return Tensor(self._forward_deployed(x.data))
        batch, time, _ = x.shape
        hidden = self.hidden_size
        h = Tensor(np.zeros((batch, hidden)))
        c = Tensor(np.zeros((batch, hidden)))
        # Precompute the input projection for all timesteps at once.
        x_proj = x @ self.weight_ih + self.bias
        steps = range(time - 1, -1, -1) if self.reverse else range(time)
        outputs: list[Tensor] = []
        for t in steps:
            gates = x_proj[:, t, :] + h @ self.weight_hh
            i = gates[:, :hidden].sigmoid()
            f = gates[:, hidden:2 * hidden].sigmoid()
            g = gates[:, 2 * hidden:3 * hidden].tanh()
            o = gates[:, 3 * hidden:].sigmoid()
            c = f * c + i * g
            h = o * c.tanh()
            outputs.append(h)
        if self.reverse:
            outputs.reverse()
        return Tensor.stack(outputs, axis=1)

    def _forward_deployed(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with matmuls routed through ``matmul_hook``.

        Pure-NumPy (no tape); used only for crossbar-deployed inference.
        The recurrence runs through one step bound per forward (see
        ``MatmulHook``) that writes each product into a ``(time, batch,
        4·hidden)`` buffer; a hook that checks sees that buffer once,
        after the last step.  The gate math writes into buffers
        allocated once per forward.
        """
        batch, time, _ = x.shape
        hidden = self.hidden_size
        hook = self.matmul_hook
        assert hook is not None
        weight_hh = self.weight_hh.data
        bind = getattr(hook, "bind", None)
        step = (bind(weight_hh, 1, batch) if bind is not None
                else per_call_step(hook, weight_hh, 1))
        x_proj = hook(x.reshape(-1, self.input_size), self.weight_ih.data, 0)
        x_proj = np.add(x_proj.reshape(batch, time, 4 * hidden)
                        .transpose(1, 0, 2), self.bias.data,
                        order="C")                       # (time, batch, 4H)
        recurrent = np.empty((time, batch, 4 * hidden))
        out = np.empty((time, batch, hidden))
        gates = np.empty((batch, 4 * hidden))
        g_gates = gates[:, 2 * hidden:3 * hidden]
        act = np.empty((batch, 4 * hidden))
        i = act[:, :hidden]
        f = act[:, hidden:2 * hidden]
        o = act[:, 3 * hidden:]
        g = np.empty((batch, hidden))
        c = np.zeros((batch, hidden))
        tanh_c = np.empty((batch, hidden))
        h = np.zeros((batch, hidden))
        for t in (range(time - 1, -1, -1) if self.reverse else range(time)):
            raw = recurrent[t]
            step(h, raw)
            np.add(x_proj[t], raw, out=gates)
            # One elementwise sigmoid over the whole gate block (its g
            # columns go unused), sliced into i, f and o.
            np.negative(gates, out=act)
            np.exp(act, out=act)
            np.add(1.0, act, out=act)
            np.divide(1.0, act, out=act)
            np.tanh(g_gates, out=g)
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=g)
            np.add(c, g, out=c)                          # f*c + i*g
            np.tanh(c, out=tanh_c)
            h = np.multiply(o, tanh_c, out=out[t])
        check = getattr(hook, "check", None)
        if check is not None:
            check(recurrent, 1)
        return out.transpose(1, 0, 2).copy()

    def __repr__(self) -> str:
        direction = "<-" if self.reverse else "->"
        return f"LSTM({self.input_size}, {self.hidden_size}, {direction})"


class BatchNorm1d(Module):
    """Batch normalization over ``(batch, channels, time)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError("BatchNorm1d expects (batch, channels, time)")
        if self.training:
            mean = x.mean(axis=(0, 2), keepdims=True)
            var = x.var(axis=(0, 2), keepdims=True)
            m = self.momentum
            self._set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self._set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * var.data.reshape(-1),
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1))
        x_hat = (x - mean) / (var + self.eps) ** 0.5
        return x_hat * self.gamma.reshape(1, -1, 1) + self.beta.reshape(1, -1, 1)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or _init.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).relu()


class Swish(Module):
    """SiLU activation, the default in Bonito's convolutional encoder."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).swish()
