"""Property-based tests for trace compression and stream merging."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlb.trace import AccessStream, compress_trace
from test_pipeline_equivalence import merge_streams

raw_traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # page key basis
        st.integers(min_value=0, max_value=4),  # array id
    ),
    min_size=0,
    max_size=400,
)


def expand(trace):
    """Decompress a TlbTrace back into the raw key/aid sequences."""
    keys = np.repeat(trace.keys, trace.counts)
    aids = np.repeat(trace.array_ids, trace.counts)
    return keys, aids


@given(raw_traces)
@settings(max_examples=200, deadline=None)
def test_compression_roundtrip(entries):
    keys = np.array([k << 1 for k, _ in entries], dtype=np.int64)
    aids = np.array([a for _, a in entries], dtype=np.uint8)
    trace = compress_trace(keys, aids)
    out_keys, out_aids = expand(trace)
    assert np.array_equal(out_keys, keys)
    assert np.array_equal(out_aids, aids)


@given(raw_traces)
@settings(max_examples=200, deadline=None)
def test_compression_counts_and_runs(entries):
    keys = np.array([k << 1 for k, _ in entries], dtype=np.int64)
    aids = np.array([a for _, a in entries], dtype=np.uint8)
    trace = compress_trace(keys, aids)
    assert trace.total_accesses == len(entries)
    assert (trace.counts >= 1).all()
    # No two adjacent runs may share (key, array id) — compression must
    # be maximal.
    if len(trace) > 1:
        same_key = trace.keys[1:] == trace.keys[:-1]
        same_aid = trace.array_ids[1:] == trace.array_ids[:-1]
        assert not np.any(same_key & same_aid)


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=-10, max_value=1000,
                    allow_nan=False, allow_infinity=False,
                ),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=1000),
            ),
            min_size=0,
            max_size=50,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_merge_streams_is_position_sorted_permutation(parts):
    built = []
    all_entries = []
    for part in parts:
        positions = np.array([p[0] for p in part], dtype=np.float64)
        aids = np.array([p[1] for p in part], dtype=np.uint8)
        idx = np.array([p[2] for p in part], dtype=np.int64)
        built.append((positions, aids, idx))
        all_entries.extend(part)
    merged = merge_streams(built)
    assert len(merged) == len(all_entries)
    # The merged stream is the multiset of inputs...
    merged_multiset = sorted(
        zip(merged.array_ids.tolist(), merged.indices.tolist())
    )
    input_multiset = sorted((a, i) for _, a, i in all_entries)
    assert merged_multiset == input_multiset
    # ...ordered by position.
    order = np.argsort(
        np.concatenate([p[0] for p in built]), kind="stable"
    )
    positions_sorted = np.concatenate([p[0] for p in built])[order]
    assert (np.diff(positions_sorted) >= 0).all()


@given(raw_traces, raw_traces)
@settings(max_examples=100, deadline=None)
def test_stream_concatenate_preserves_order(a_entries, b_entries):
    def stream(entries):
        return AccessStream(
            np.array([a for _, a in entries], dtype=np.uint8),
            np.array([k for k, _ in entries], dtype=np.int64),
        )

    merged = AccessStream.concatenate([stream(a_entries), stream(b_entries)])
    assert len(merged) == len(a_entries) + len(b_entries)
    expected_ids = [a for _, a in a_entries] + [a for _, a in b_entries]
    assert merged.array_ids.tolist() == expected_ids
