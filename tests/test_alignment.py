"""Tests for alignment, edit distance, and the read-accuracy metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics import (
    banded_edit_distance,
    edit_distance,
    encode_bases,
    global_align,
    read_accuracy,
)
from repro.genomics.alignment import _DIAG, _LEFT, _UP, _needleman_wunsch

sequences = st.lists(st.integers(0, 3), min_size=0, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int8)
)


def reference_edit_distance(a, b):
    """Plain O(nm) Levenshtein for cross-checking."""
    n, m = len(a), len(b)
    dp = np.zeros((n + 1, m + 1), dtype=int)
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = min(dp[i - 1, j] + 1, dp[i, j - 1] + 1,
                           dp[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(dp[n, m])


def reference_needleman_wunsch(query, reference, match, mismatch, gap):
    """Score + traceback matrices, resolving each cell's left gap in a
    scalar pass (the module's vectorized form must match it)."""
    n, m = len(query), len(reference)
    score = np.empty((n + 1, m + 1), dtype=np.float64)
    trace = np.empty((n + 1, m + 1), dtype=np.uint8)
    score[0, :] = np.arange(m + 1) * gap
    score[:, 0] = np.arange(n + 1) * gap
    trace[0, :] = _LEFT
    trace[:, 0] = _UP
    trace[0, 0] = _DIAG
    for i in range(1, n + 1):
        sub = np.where(reference == query[i - 1], match, mismatch)
        diag = score[i - 1, :-1] + sub
        up = score[i - 1, 1:] + gap
        best = np.maximum(diag, up)
        direction = np.where(diag >= up, _DIAG, _UP).astype(np.uint8)
        row = score[i]
        for j in range(1, m + 1):
            left = row[j - 1] + gap
            if left > best[j - 1]:
                row[j] = left
                trace[i, j] = _LEFT
            else:
                row[j] = best[j - 1]
                trace[i, j] = direction[j - 1]
    return score, trace


long_sequences = st.lists(st.integers(0, 3), min_size=0, max_size=80).map(
    lambda xs: np.array(xs, dtype=np.int8)
)


class TestNeedlemanWunsch:
    @given(long_sequences, long_sequences,
           st.integers(0, 5), st.integers(-5, 1), st.integers(-5, 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_recurrence(self, query, reference, match,
                                       mismatch, gap):
        """Identical score and traceback matrices for integer scores."""
        score, trace = _needleman_wunsch(query, reference, float(match),
                                         float(mismatch), float(gap))
        ref_score, ref_trace = reference_needleman_wunsch(
            query, reference, float(match), float(mismatch), float(gap))
        np.testing.assert_array_equal(score, ref_score)
        np.testing.assert_array_equal(trace, ref_trace)


class TestGlobalAlign:
    def test_identical(self):
        a = encode_bases("ACGTACGT")
        result = global_align(a, a)
        assert result.matches == 8
        assert result.mismatches == result.insertions == result.deletions == 0
        assert result.identity == 1.0

    def test_single_mismatch(self):
        a = encode_bases("ACGT")
        b = encode_bases("AGGT")
        result = global_align(a, b)
        assert result.matches == 3 and result.mismatches == 1
        assert np.isclose(result.identity, 0.75)

    def test_insertion_and_deletion(self):
        a = encode_bases("ACGGT")   # extra G vs reference
        b = encode_bases("ACGT")
        result = global_align(a, b)
        assert result.insertions == 1
        assert result.matches == 4

        result = global_align(b, a)
        assert result.deletions == 1

    def test_empty_sequences(self):
        a = encode_bases("ACG")
        empty = np.array([], dtype=np.int8)
        result = global_align(a, empty)
        assert result.insertions == 3 and result.alignment_length == 3
        assert global_align(empty, empty).identity == 1.0

    def test_score_consistency(self):
        a = encode_bases("ACGTT")
        b = encode_bases("ACGAT")
        result = global_align(a, b, match=2.0, mismatch=-3.0, gap=-1.0)
        # Gapping around the difference wins: ACG-TT / ACGA-T gives
        # 4 matches and 2 gaps = 4*2 - 2 = 6 (beats a -3 mismatch).
        assert result.score == pytest.approx(6.0)
        assert result.matches == 4

    def test_read_accuracy_wrapper(self):
        a = encode_bases("ACGT")
        assert read_accuracy(a, a) == 1.0


class TestEditDistance:
    def test_known_values(self):
        assert edit_distance(encode_bases("ACGT"), encode_bases("ACGT")) == 0
        assert edit_distance(encode_bases("ACGT"), encode_bases("AGT")) == 1
        assert edit_distance(encode_bases("AAAA"), encode_bases("TTTT")) == 4
        assert edit_distance(np.array([]), encode_bases("ACG")) == 3

    @given(sequences, sequences)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_dp(self, a, b):
        assert edit_distance(a, b) == reference_edit_distance(a, b)

    @given(sequences, sequences)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_triangle_bounds(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(sequences, sequences)
    @settings(max_examples=40, deadline=None)
    def test_alignment_consistent_with_edits(self, a, b):
        """NW mismatch+indel count upper-bounds the edit distance."""
        result = global_align(a, b)
        edits = result.mismatches + result.insertions + result.deletions
        assert edits >= edit_distance(a, b)


class TestBandedEditDistance:
    @given(sequences, sequences)
    @settings(max_examples=40, deadline=None)
    def test_exact_within_band(self, a, b):
        d = edit_distance(a, b)
        banded = banded_edit_distance(a, b, band=max(d, 1) + 2)
        assert banded == d

    def test_similar_long_sequences(self, rng):
        a = rng.integers(0, 4, size=500).astype(np.int8)
        b = a.copy()
        b[100] = (b[100] + 1) % 4
        b = np.delete(b, 300)
        assert banded_edit_distance(a, b, band=16) == edit_distance(a, b) == 2
