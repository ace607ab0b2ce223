"""Basecalling: run the network over read signal and decode CTC output."""

from __future__ import annotations

import numpy as np

from .. import nn
from ..genomics import Read
from .model import BLANK, BonitoModel

__all__ = ["basecall_signal", "basecall_signals", "basecall_read",
           "basecall_reads", "basecall_chunked"]


def _decode_log_probs(log_probs: np.ndarray, beam_width: int) -> np.ndarray:
    """Decode one read's ``(frames, classes)`` CTC posteriors to bases."""
    if beam_width and beam_width > 1:
        labels = nn.beam_search_decode(log_probs, beam_width=beam_width,
                                       blank=BLANK)
    else:
        labels = nn.greedy_decode(log_probs, blank=BLANK)
    return labels.astype(np.int8) - 1  # CTC labels 1..4 -> base codes 0..3


def basecall_signal(model: BonitoModel, signal: np.ndarray,
                    beam_width: int = 0) -> np.ndarray:
    """Basecall one signal array; returns base codes ``0..3``.

    ``beam_width=0`` uses greedy (best-path) decoding; larger values use
    prefix beam search.
    """
    signal = np.asarray(signal, dtype=np.float64)
    with nn.no_grad():
        logits = model(nn.Tensor(signal[None, :]))
    log_probs = logits.log_softmax(axis=-1).data[0]
    return _decode_log_probs(log_probs, beam_width)


def basecall_signals(model: BonitoModel, signals: np.ndarray,
                     beam_width: int = 0) -> list[np.ndarray]:
    """Basecall a stack of equal-length signals in one network forward.

    ``signals`` is ``(reads, samples)``.  The per-sample DAC scaling
    contract makes every VMM row independent of its batch, so each
    returned basecall is bitwise-identical to calling
    :func:`basecall_signal` on that signal alone (with the same
    deployed-bank RNG state) — stacking changes throughput, never
    results.  Decoding still runs per read (CTC decode is sequential in
    frames but cheap next to the non-ideal forward).
    """
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2:
        raise ValueError("signals must be (reads, samples)")
    if signals.shape[0] == 0:
        return []
    with nn.no_grad():
        logits = model(nn.Tensor(signals))
    log_probs = logits.log_softmax(axis=-1).data
    return [_decode_log_probs(log_probs[i], beam_width)
            for i in range(signals.shape[0])]


def basecall_read(model: BonitoModel, read: Read,
                  beam_width: int = 0) -> np.ndarray:
    """Basecall a simulated :class:`~repro.genomics.Read`."""
    return basecall_signal(model, read.signal, beam_width=beam_width)


def basecall_reads(model: BonitoModel, reads: list[Read],
                   beam_width: int = 0) -> list[np.ndarray]:
    """Basecall a list of reads, stacking equal-length signals.

    Reads are grouped by signal length (first-seen order, so the VMM
    RNG consumption order is deterministic for a given read list) and
    each group runs as one stacked forward via
    :func:`basecall_signals`; results come back in input order.
    Variable-length tails simply form their own groups.
    """
    groups: dict[int, list[int]] = {}
    for i, read in enumerate(reads):
        groups.setdefault(len(read.signal), []).append(i)
    results: list[np.ndarray | None] = [None] * len(reads)
    for length, indices in groups.items():
        stacked = np.stack([np.asarray(reads[i].signal, dtype=np.float64)
                            for i in indices])
        for i, calls in zip(indices,
                            basecall_signals(model, stacked,
                                             beam_width=beam_width)):
            results[i] = calls
    return results  # type: ignore[return-value]


def basecall_chunked(model: BonitoModel, signal: np.ndarray,
                     chunk_samples: int = 1024, overlap: int = 128,
                     beam_width: int = 0) -> np.ndarray:
    """Basecall a long signal in overlapping chunks (Bonito's strategy).

    Real basecallers bound memory/latency by slicing the signal into
    fixed windows with overlap, decoding each, and stitching: frames in
    the overlap region are trimmed symmetrically so every sample is
    decoded by exactly one chunk's interior, where the network has full
    bidirectional context.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if chunk_samples <= 2 * overlap:
        raise ValueError("chunk_samples must exceed twice the overlap")
    if len(signal) <= chunk_samples:
        return basecall_signal(model, signal, beam_width=beam_width)

    # Slice the window layout first, then run every full-size chunk as
    # one stacked forward (per-sample DAC scaling keeps each chunk's
    # logits independent of its batch; the stacked chunks share one
    # mismatch draw per VMM call, like any stacked batch).  Only a
    # shorter tail chunk needs its own forward.
    step = chunk_samples - overlap
    bounds: list[tuple[int, int]] = []
    start = 0
    while start < len(signal):
        stop = min(start + chunk_samples, len(signal))
        bounds.append((start, stop))
        if stop == len(signal):
            break
        start += step

    full = [(start, stop) for start, stop in bounds
            if stop - start == chunk_samples]
    log_probs_by_start: dict[int, np.ndarray] = {}
    if full:
        stacked = np.stack([signal[start:stop] for start, stop in full])
        with nn.no_grad():
            logits = model(nn.Tensor(stacked))
        stacked_lp = logits.log_softmax(axis=-1).data
        for i, (start, _) in enumerate(full):
            log_probs_by_start[start] = stacked_lp[i]
    for start, stop in bounds:
        if start not in log_probs_by_start:
            with nn.no_grad():
                logits = model(nn.Tensor(signal[start:stop][None, :]))
            log_probs_by_start[start] = logits.log_softmax(axis=-1).data[0]

    pieces: list[np.ndarray] = []
    for start, stop in bounds:
        log_probs = log_probs_by_start[start]
        # Trim half the overlap worth of *frames* at stitched edges.
        frames = log_probs.shape[0]
        assert stop > start  # start < len(signal) bounds every slice
        frames_per_sample = frames / (stop - start)
        trim = int(round(overlap / 2 * frames_per_sample))
        lo = trim if start > 0 else 0
        hi = frames - trim if stop < len(signal) else frames
        pieces.append(_decode_log_probs(log_probs[lo:hi], beam_width))
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int8)
