"""Pairwise alignment and the paper's "read accuracy" metric.

The System Evaluator reports *read accuracy*: "the fraction of the
total number of exactly matching bases of a read to a reference to the
length of their alignment (including insertions and deletions)"
(Section 3.5).  We implement global Needleman–Wunsch alignment with a
traceback, compute exactly that identity, and provide edit distance and
a banded variant for long sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlignmentResult",
    "global_align",
    "aligned_pairs",
    "edit_distance",
    "read_accuracy",
    "banded_edit_distance",
]

# Traceback codes.
_DIAG, _UP, _LEFT = 0, 1, 2


@dataclass(frozen=True)
class AlignmentResult:
    """Summary of one global alignment."""

    matches: int
    mismatches: int
    insertions: int   # bases in query absent from reference
    deletions: int    # bases in reference absent from query
    score: float

    @property
    def alignment_length(self) -> int:
        return self.matches + self.mismatches + self.insertions + self.deletions

    @property
    def identity(self) -> float:
        """The paper's read accuracy: matches / alignment columns."""
        length = self.alignment_length
        return self.matches / length if length else 1.0


def _needleman_wunsch(query: np.ndarray, reference: np.ndarray,
                      match: float, mismatch: float, gap: float):
    """Score + traceback matrices for global alignment.

    Each row's left-gap chain ``row[j] = max(best[j-1], row[j-1] + gap)``
    is resolved in closed form, as :func:`edit_distance` does:
    ``row[j] = j·gap + max over k <= j of (row'[k] - k·gap)``, where
    ``row'`` is the row's column-0 score followed by ``best``.  ``LEFT``
    is traced exactly where ``row[j-1] + gap > best[j-1]``.  The result
    equals the cell-by-cell recurrence when ``match``, ``mismatch`` and
    ``gap`` are integers (every caller's case): every score is then an
    integer, so no sum rounds.
    """
    n, m = len(query), len(reference)
    score = np.empty((n + 1, m + 1), dtype=np.float64)
    trace = np.empty((n + 1, m + 1), dtype=np.uint8)
    offsets = np.arange(m + 1) * gap
    score[0, :] = offsets
    score[:, 0] = np.arange(n + 1) * gap
    trace[0, :] = _LEFT
    trace[:, 0] = _UP
    trace[0, 0] = _DIAG

    chain = np.empty(m + 1)
    for i in range(1, n + 1):
        sub = np.where(reference == query[i - 1], match, mismatch)
        diag = score[i - 1, :-1] + sub
        up = score[i - 1, 1:] + gap
        best = np.maximum(diag, up)
        direction = np.where(diag >= up, _DIAG, _UP).astype(np.uint8)
        row = score[i]
        chain[0] = row[0]                    # offsets[0] is 0
        np.subtract(best, offsets[1:], out=chain[1:])
        np.maximum.accumulate(chain, out=chain)
        np.add(chain, offsets, out=row)
        left = row[:-1] + gap > best
        trace[i, 1:] = np.where(left, _LEFT, direction)

    return score, trace


def global_align(query: np.ndarray, reference: np.ndarray,
                 match: float = 1.0, mismatch: float = -1.0,
                 gap: float = -1.0) -> AlignmentResult:
    """Needleman–Wunsch global alignment with linear gap penalty.

    Dynamic program is vectorized across each row; traceback is exact.
    """
    query = np.asarray(query)
    reference = np.asarray(reference)
    n, m = len(query), len(reference)
    if n == 0 or m == 0:
        return AlignmentResult(0, 0, n, m, gap * (n + m))
    score, trace = _needleman_wunsch(query, reference, match, mismatch, gap)

    matches = mismatches = insertions = deletions = 0
    i, j = n, m
    while i > 0 or j > 0:
        step = trace[i, j]
        if i > 0 and j > 0 and step == _DIAG:
            if query[i - 1] == reference[j - 1]:
                matches += 1
            else:
                mismatches += 1
            i -= 1
            j -= 1
        elif i > 0 and (step == _UP or j == 0):
            insertions += 1
            i -= 1
        else:
            deletions += 1
            j -= 1
    return AlignmentResult(matches, mismatches, insertions, deletions,
                           float(score[n, m]))


def aligned_pairs(query: np.ndarray, reference: np.ndarray,
                  match: float = 1.0, mismatch: float = -1.0,
                  gap: float = -1.0) -> np.ndarray:
    """Aligned (query_pos, reference_pos) index pairs.

    Returns an ``(n_pairs, 2)`` int array of the alignment's diagonal
    columns (matches and mismatches; gap columns are skipped), in
    increasing position order.  Used by the polishing stage to project
    read bases onto reference coordinates.
    """
    query = np.asarray(query)
    reference = np.asarray(reference)
    n, m = len(query), len(reference)
    if n == 0 or m == 0:
        return np.empty((0, 2), dtype=np.int64)
    _, trace = _needleman_wunsch(query, reference, match, mismatch, gap)
    pairs: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        step = trace[i, j]
        if i > 0 and j > 0 and step == _DIAG:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif i > 0 and (step == _UP or j == 0):
            i -= 1
        else:
            j -= 1
    return np.asarray(pairs[::-1], dtype=np.int64).reshape(-1, 2)


def read_accuracy(called: np.ndarray, truth: np.ndarray) -> float:
    """Identity of a basecalled sequence against its ground truth."""
    return global_align(np.asarray(called), np.asarray(truth)).identity


def edit_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Levenshtein distance via a rolling-row dynamic program."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    previous = np.arange(len(b) + 1, dtype=np.int64)
    index = np.arange(len(b) + 1, dtype=np.int64)
    for i in range(1, len(a) + 1):
        cost = (b != a[i - 1]).astype(np.int64)
        candidate = np.empty(len(b) + 1, dtype=np.int64)
        candidate[0] = i
        np.minimum(previous[1:] + 1, previous[:-1] + cost, out=candidate[1:])
        # Resolve the left-dependence current[j] = min(candidate[j],
        # current[j-1] + 1) exactly: min over k<=j of candidate[k]+(j-k).
        previous = np.minimum.accumulate(candidate - index) + index
    return int(previous[-1])


def banded_edit_distance(a: np.ndarray, b: np.ndarray, band: int = 32) -> int:
    """Edit distance restricted to a diagonal band (Ukkonen-style).

    Returns an upper bound equal to the true distance whenever it is at
    most ``band``; useful for long, high-identity sequences.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = len(a), len(b)
    if abs(n - m) > band:
        band = abs(n - m) + band
    big = n + m + 1
    width = 2 * band + 1
    offsets = np.arange(width)
    previous = np.full(width, big, dtype=np.int64)
    # previous[band + j - i] holds row i, column j.
    reachable = min(band, m)
    previous[band:band + reachable + 1] = np.arange(reachable + 1)
    for i in range(1, n + 1):
        lo = max(1, i - band)
        hi = min(m, i + band)
        if lo > hi:
            # No columns in the band this row except possibly column 0.
            previous = np.full(width, big, dtype=np.int64)
            if i <= band:
                previous[band - i] = i
            continue
        # Substitution costs for j in [lo, hi], at band offsets
        # band + j - i.
        j_range = np.arange(lo, hi + 1)
        cost = np.full(width, big, dtype=np.int64)
        cost[band + j_range - i] = (b[j_range - 1] != a[i - 1])
        diag = np.where(cost >= big, big, previous + cost)
        up = np.full(width, big, dtype=np.int64)
        up[:-1] = previous[1:] + 1
        candidate = np.minimum(diag, up)
        if i - band >= 1:
            candidate[0] = big                      # fell off the band
        else:
            candidate[band - i] = i                 # column 0 gap chain
        np.clip(candidate, 0, big, out=candidate)
        # Resolve left-dependence current[o] = min(candidate[o],
        # current[o-1] + 1) with a single scan.
        previous = np.minimum.accumulate(candidate - offsets) + offsets
        np.minimum(previous, big, out=previous)
        # Offsets outside [band+lo-i, band+hi-i] are invalid.
        valid_lo = band + lo - i
        valid_hi = band + hi - i
        if i - band < 1:
            valid_lo = band - i                     # include column 0
        previous[:valid_lo] = big
        previous[valid_hi + 1:] = big
    result = previous[band + m - n]
    return int(min(result, big))
