"""Property-based tests for graph structures and reordering (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CsrGraph, concat_ranges
from repro.graph.reorder import (
    dbg_bin_sizes,
    dbg_order,
    degree_sort_order,
    random_order,
)


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_from_edges_invariants(data):
    n, src, dst = data
    g = CsrGraph.from_edges(src, dst, n)
    assert g.num_vertices == n
    assert g.num_edges == src.size
    assert g.indptr[0] == 0
    assert g.indptr[-1] == src.size
    assert (np.diff(g.indptr) >= 0).all()
    # Every input edge appears exactly once.
    out_src, out_dst = g.edge_endpoints()
    original = sorted(zip(src.tolist(), dst.tolist()))
    rebuilt = sorted(zip(out_src.tolist(), out_dst.tolist()))
    assert original == rebuilt


@given(edge_lists(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_relabel_preserves_structure(data, seed):
    n, src, dst = data
    g = CsrGraph.from_edges(src, dst, n)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64)
    r = g.relabel(perm)
    # Relabeling the edge multiset directly must give the same multiset.
    s1, d1 = r.edge_endpoints()
    expected = sorted(zip(perm[src].tolist(), perm[dst].tolist()))
    assert sorted(zip(s1.tolist(), d1.tolist())) == expected


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_dbg_order_is_permutation_sorted_by_bin(data):
    n, src, dst = data
    g = CsrGraph.from_edges(src, dst, n)
    perm = dbg_order(g)
    assert np.array_equal(np.sort(perm), np.arange(n))
    # Hotter bins must come first: new-id order must have non-increasing
    # bin hotness, i.e. degrees ordered by bin (not strictly by degree).
    bins = dbg_bin_sizes(g)
    assert bins.sum() == n
    in_deg = g.in_degrees()
    old_in_new_order = np.argsort(perm, kind="stable")
    degrees_in_new_order = in_deg[old_in_new_order]
    # Every vertex in an earlier bin has degree >= the floor of every
    # later bin; spot-check montonicity of bin floors via thresholds.
    avg = g.average_degree
    floors = np.array([32, 16, 8, 4, 2, 1, 0.5, 0.0]) * avg
    position = 0
    for floor, count in zip(floors, bins):
        segment = degrees_in_new_order[position : position + count]
        assert (segment >= floor).all()
        position += count


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_degree_sort_is_descending(data):
    n, src, dst = data
    g = CsrGraph.from_edges(src, dst, n)
    perm = degree_sort_order(g)
    in_deg = g.in_degrees()
    ordered = in_deg[np.argsort(perm, kind="stable")]
    assert (np.diff(ordered) <= 0).all()


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_random_order_is_permutation(n, seed):
    g = CsrGraph.from_edges(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), n
    )
    perm = random_order(g, seed=seed)
    assert np.array_equal(np.sort(perm), np.arange(n))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_concat_ranges_matches_naive(pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    expected: list[int] = []
    for start, count in pairs:
        expected.extend(range(start, start + count))
    assert concat_ranges(starts, counts).tolist() == expected
