"""``repro.basecaller`` — the Bonito-style CTC basecaller.

Model, chunked training pipeline, CTC decoding, read-accuracy
evaluation, and a cached pretrained baseline shared by all experiments.
"""

from .model import BonitoConfig, BonitoModel, NUM_CLASSES, BLANK
from .train import (
    Chunk,
    chunk_read,
    make_training_chunks,
    TrainConfig,
    train_model,
    batch_iterator,
)
from .decode import (
    basecall_signal,
    basecall_signals,
    basecall_read,
    basecall_reads,
    basecall_chunked,
)
from .evaluate import AccuracyReport, evaluate_accuracy
from .registry import cache_dir, default_model, train_default_model
from .hmm import HMMBasecaller

__all__ = [
    "BonitoConfig", "BonitoModel", "NUM_CLASSES", "BLANK",
    "Chunk", "chunk_read", "make_training_chunks", "TrainConfig",
    "train_model", "batch_iterator",
    "basecall_signal", "basecall_signals", "basecall_read",
    "basecall_reads",
    "basecall_chunked",
    "AccuracyReport", "evaluate_accuracy",
    "cache_dir", "default_model", "train_default_model",
    "HMMBasecaller",
]
