"""Unit tests for access streams, merging and trace compression."""

import numpy as np
import pytest

from repro.tlb.trace import (
    AccessStream,
    compress_trace,
)
from test_pipeline_equivalence import merge_streams


class TestAccessStream:
    def test_length_check(self):
        with pytest.raises(ValueError):
            AccessStream(
                np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.int64)
            )

    def test_concatenate(self):
        a = AccessStream(
            np.array([0], dtype=np.uint8), np.array([1], dtype=np.int64)
        )
        b = AccessStream(
            np.array([1], dtype=np.uint8), np.array([2], dtype=np.int64)
        )
        c = AccessStream.concatenate([a, b])
        assert c.array_ids.tolist() == [0, 1]
        assert c.indices.tolist() == [1, 2]

    def test_concatenate_empty(self):
        assert len(AccessStream.concatenate([])) == 0


class TestMergeStreams:
    def test_interleaves_by_position(self):
        edges = (
            np.array([0.0, 2.0]),
            np.array([1, 1], dtype=np.uint8),
            np.array([10, 11], dtype=np.int64),
        )
        props = (
            np.array([1.0, 3.0]),
            np.array([3, 3], dtype=np.uint8),
            np.array([20, 21], dtype=np.int64),
        )
        vertex = (
            np.array([-0.5]),
            np.array([0], dtype=np.uint8),
            np.array([5], dtype=np.int64),
        )
        merged = merge_streams([edges, props, vertex])
        assert merged.array_ids.tolist() == [0, 1, 3, 1, 3]
        assert merged.indices.tolist() == [5, 10, 20, 11, 21]

    def test_stable_on_ties(self):
        a = (
            np.array([0.0]),
            np.array([0], dtype=np.uint8),
            np.array([1], dtype=np.int64),
        )
        b = (
            np.array([0.0]),
            np.array([1], dtype=np.uint8),
            np.array([2], dtype=np.int64),
        )
        merged = merge_streams([a, b])
        assert merged.array_ids.tolist() == [0, 1]


class TestCompression:
    def test_runs_collapse(self):
        keys = np.array([4, 4, 4, 6, 4], dtype=np.int64)
        aids = np.zeros(5, dtype=np.uint8)
        trace = compress_trace(keys, aids)
        assert trace.keys.tolist() == [4, 6, 4]
        assert trace.counts.tolist() == [3, 1, 1]
        assert trace.total_accesses == 5

    def test_array_id_change_breaks_run(self):
        keys = np.array([4, 4], dtype=np.int64)
        aids = np.array([0, 1], dtype=np.uint8)
        trace = compress_trace(keys, aids)
        assert len(trace) == 2
        assert trace.array_ids.tolist() == [0, 1]

    def test_empty(self):
        trace = compress_trace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
        )
        assert len(trace) == 0
        assert trace.total_accesses == 0

    def test_sequential_scan_compresses_hard(self):
        """A sequential 8-byte-element scan compresses by page/element."""
        elements = np.arange(4096, dtype=np.int64)
        keys = (elements * 8) >> 12 << 1
        trace = compress_trace(keys, np.zeros(4096, dtype=np.uint8))
        assert len(trace) == 8  # 4096 elements * 8B / 4KB pages
        assert trace.total_accesses == 4096

    def test_pointer_chase_does_not_compress(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1000, 512) << 1
        aids = np.zeros(512, dtype=np.uint8)
        trace = compress_trace(keys.astype(np.int64), aids)
        assert len(trace) > 450  # nearly incompressible


class TestLookupView:
    """Lookup coalescing: adjacent same-key runs (possible when arrays
    share a page under huge mappings) collapse to one TLB lookup led by
    the first run's array."""

    def test_coalesces_adjacent_same_key_runs(self):
        keys = np.array([4, 4, 4, 6], dtype=np.int64)
        aids = np.array([0, 1, 1, 0], dtype=np.uint8)
        trace = compress_trace(keys, aids)
        assert len(trace) == 3  # runs: (4,a0) (4,a1) (6,a0)
        lookup_keys, lookup_aids = trace.lookup_view()
        assert lookup_keys.tolist() == [4, 6]
        assert lookup_aids.tolist() == [0, 0]

    def test_all_distinct_keys_share_run_arrays(self):
        keys = np.array([2, 4, 6], dtype=np.int64)
        trace = compress_trace(keys, np.zeros(3, dtype=np.uint8))
        lookup_keys, lookup_aids = trace.lookup_view()
        assert lookup_keys is trace.keys
        assert lookup_aids is trace.array_ids

    def test_empty(self):
        trace = compress_trace(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
        )
        lookup_keys, lookup_aids = trace.lookup_view()
        assert lookup_keys.size == 0
        assert lookup_aids.size == 0

    def test_view_is_cached(self):
        keys = np.array([4, 4, 6], dtype=np.int64)
        aids = np.array([0, 1, 0], dtype=np.uint8)
        trace = compress_trace(keys, aids)
        first = trace.lookup_view()
        second = trace.lookup_view()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_access_counts_unaffected_by_coalescing(self):
        keys = np.array([4, 4, 4, 6], dtype=np.int64)
        aids = np.array([0, 1, 1, 0], dtype=np.uint8)
        trace = compress_trace(keys, aids)
        assert trace.total_accesses == 4
        assert trace.counts.sum() == 4
