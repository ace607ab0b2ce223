"""``repro.genomics`` — synthetic nanopore sequencing substrate.

Replaces the paper's MinION R9.4.1 datasets (Table 2) with a
statistically equivalent simulator: reference genomes, read sampling,
a k-mer pore model, squiggle generation, and the alignment machinery
behind the paper's read-accuracy metric.
"""

from .genome import (
    BASES,
    DatasetSpec,
    PAPER_DATASETS,
    get_dataset,
    random_genome,
    encode_bases,
    decode_bases,
    reverse_complement,
)
from .pore_model import PoreModel, default_pore_model
from .signal import SquiggleConfig, simulate_squiggle, normalize_signal
from .reads import Read, sample_reads, dataset_reads
from .alignment import (
    AlignmentResult,
    global_align,
    aligned_pairs,
    edit_distance,
    banded_edit_distance,
    read_accuracy,
)

__all__ = [
    "BASES", "DatasetSpec", "PAPER_DATASETS", "get_dataset", "random_genome",
    "encode_bases", "decode_bases", "reverse_complement",
    "PoreModel", "default_pore_model",
    "SquiggleConfig", "simulate_squiggle", "normalize_signal",
    "Read", "sample_reads", "dataset_reads",
    "AlignmentResult", "global_align", "aligned_pairs", "edit_distance",
    "banded_edit_distance", "read_accuracy",
]
