"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The Swordfish paper runs Bonito under PyTorch; this reproduction has no
GPU frameworks available, so the DNN stack (autograd, layers, CTC loss,
optimizers, quantization) is implemented here on plain NumPy.
"""

from .tensor import Tensor, as_tensor, no_grad, is_grad_enabled
from .module import Module, Parameter, Sequential
from .layers import (
    Linear,
    Conv1d,
    LSTM,
    BatchNorm1d,
    Dropout,
    ReLU,
    Swish,
)
from .ctc import ctc_loss, ctc_forward_score, greedy_decode, beam_search_decode
from .optim import SGD, Adam, clip_grad_norm, CosineSchedule, LinearWarmup
from .quantize import (
    QuantConfig,
    PAPER_QUANT_CONFIGS,
    get_quant_config,
    quantize_symmetric,
    quantization_step,
    FakeQuant,
    QuantizedModel,
)
from .serialize import (
    CheckpointError,
    save_checkpoint,
    load_checkpoint,
    save_training_state,
    load_training_state,
)
from . import init

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Sequential",
    "Linear", "Conv1d", "LSTM", "BatchNorm1d", "Dropout", "ReLU", "Swish",
    "ctc_loss", "ctc_forward_score", "greedy_decode", "beam_search_decode",
    "SGD", "Adam", "clip_grad_norm", "CosineSchedule", "LinearWarmup",
    "QuantConfig", "PAPER_QUANT_CONFIGS", "get_quant_config",
    "quantize_symmetric", "quantization_step", "FakeQuant", "QuantizedModel",
    "CheckpointError", "save_checkpoint", "load_checkpoint",
    "save_training_state", "load_training_state",
    "init",
]
