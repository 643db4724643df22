"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CsrGraph, concat_ranges
from repro.radix import stable_order


def _reference_csr(src, dst, num_vertices, weights=None):
    """The CSR arrays built the straightforward way: int64 ids and
    NumPy's stable comparison argsort."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    w = None if weights is None else np.asarray(weights, np.int64)[order]
    return indptr, dst[order], w


def _edges_with_duplicates_and_loops(num_vertices, num_edges, seed):
    """Random edges plus repeated edges, self-loops and both extreme
    ids, so every radix digit of the largest id is exercised."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    dup = rng.integers(0, num_edges, size=num_edges // 4)
    src = np.concatenate([src, src[dup], [num_vertices - 1, 0]])
    dst = np.concatenate([dst, dst[dup], [0, num_vertices - 1]])
    loops = rng.random(src.size) < 0.1
    dst[loops] = src[loops]
    return src, dst


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([5, 0]), np.array([3, 2]))
        assert out.tolist() == [5, 6, 7, 0, 1]

    def test_zero_counts_skipped(self):
        out = concat_ranges(np.array([5, 9, 1]), np.array([0, 2, 0]))
        assert out.tolist() == [9, 10]

    def test_empty(self):
        assert concat_ranges(np.array([]), np.array([])).size == 0

    def test_all_zero(self):
        assert concat_ranges(np.array([3, 4]), np.array([0, 0])).size == 0


class TestFromEdges:
    def test_builds_csr(self):
        g = CsrGraph.from_edges(
            np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]), 3
        )
        assert g.num_vertices == 3
        assert g.num_edges == 4
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]
        assert g.neighbors(2).tolist() == [0]

    def test_preserves_edge_order_within_source(self):
        g = CsrGraph.from_edges(
            np.array([1, 0, 1]), np.array([5, 3, 2]), 6
        )
        assert g.neighbors(1).tolist() == [5, 2]

    def test_weights_follow_edges(self):
        g = CsrGraph.from_edges(
            np.array([1, 0]), np.array([2, 1]), 3,
            weights=np.array([7, 9]),
        )
        assert g.weights.tolist() == [9, 7]

    def test_duplicates_and_self_loops_kept(self):
        g = CsrGraph.from_edges(
            np.array([0, 0, 1]), np.array([1, 1, 1]), 2
        )
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 1]
        assert g.neighbors(1).tolist() == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(np.array([0]), np.array([5]), 3)
        with pytest.raises(GraphError):
            CsrGraph.from_edges(np.array([-1]), np.array([0]), 3)

    def test_mismatched_lengths(self):
        with pytest.raises(GraphError):
            CsrGraph.from_edges(np.array([0]), np.array([0, 1]), 3)


class TestFromEdgesMatchesArgsort:
    """The radix-sorted build is bit-identical to the int64 stable
    argsort build for every vertex count, id dtype and edge mix."""

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    @pytest.mark.parametrize(
        "num_vertices", [1, 2, 2**16, 2**16 + 1, 2**20]
    )
    def test_random_edges(self, num_vertices, dtype):
        src, dst = _edges_with_duplicates_and_loops(
            num_vertices, min(4 * num_vertices, 200_000), seed=num_vertices
        )
        weights = np.arange(src.size, dtype=np.int64)[::-1]
        g = CsrGraph.from_edges(
            src.astype(dtype), dst.astype(dtype), num_vertices,
            weights=weights,
        )
        indptr, indices, w = _reference_csr(src, dst, num_vertices, weights)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert np.array_equal(g.weights, w)
        assert g.indices.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    @pytest.mark.parametrize("num_vertices", [0, 1, 2, 2**16 + 1])
    def test_empty_edge_list(self, num_vertices, dtype):
        empty = np.empty(0, dtype=dtype)
        g = CsrGraph.from_edges(empty, empty, num_vertices)
        assert g.indptr.tolist() == [0] * (num_vertices + 1)
        assert g.num_edges == 0

    def test_uint64_ids(self):
        src, dst = _edges_with_duplicates_and_loops(70_000, 5_000, seed=4)
        g = CsrGraph.from_edges(
            src.astype(np.uint64), dst.astype(np.uint64), 70_000
        )
        indptr, indices, _ = _reference_csr(src, dst, 70_000)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    def test_all_edges_from_one_source(self):
        src = np.full(1000, 2**16, dtype=np.int64)
        dst = np.arange(1000, dtype=np.int64)
        g = CsrGraph.from_edges(src, dst, 2**16 + 1)
        assert g.neighbors(2**16).tolist() == dst.tolist()


class TestStableOrder:
    @pytest.mark.parametrize(
        "dtype", [np.uint16, np.int32, np.uint32, np.int64, np.uint64]
    )
    def test_matches_stable_argsort(self, dtype):
        rng = np.random.default_rng(11)
        top = min(np.iinfo(dtype).max, 2**40)
        keys = rng.integers(0, top, size=5000, dtype=np.int64)
        keys[::3] = keys[0]  # ties must keep input order
        keys = keys.astype(dtype)
        assert np.array_equal(
            stable_order(keys), np.argsort(keys, kind="stable")
        )

    def test_empty(self):
        assert stable_order(np.empty(0, dtype=np.int64)).size == 0


class TestFloatIdsRejected:
    def test_float_source(self):
        with pytest.raises(GraphError, match="integers"):
            CsrGraph.from_edges(np.array([0.7]), np.array([0]), 2)

    def test_float_destination(self):
        with pytest.raises(GraphError, match="integers"):
            CsrGraph.from_edges(np.array([0]), np.array([1.0]), 2)

    def test_bool_ids(self):
        with pytest.raises(GraphError, match="integers"):
            CsrGraph.from_edges(np.array([True]), np.array([0]), 2)

    def test_float_perm(self):
        g = CsrGraph.from_edges(np.array([0]), np.array([1]), 2)
        with pytest.raises(GraphError, match="integers"):
            g.relabel(np.array([0.5, 1.0]))
        with pytest.raises(GraphError, match="integers"):
            g.relabel(np.array([1.0, 0.0]))


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_monotone(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 2, 1]), np.array([0, 0]))

    def test_indptr_end_matches_edges(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 3]), np.array([0, 0]))

    def test_destinations_in_range(self):
        with pytest.raises(GraphError):
            CsrGraph(np.array([0, 1]), np.array([5]))

    def test_weights_shape(self):
        with pytest.raises(GraphError):
            CsrGraph(
                np.array([0, 1]), np.array([0]), weights=np.array([1, 2])
            )


class TestDegrees:
    def test_out_degrees(self, small_graph):
        assert small_graph.out_degrees().sum() == small_graph.num_edges

    def test_in_degrees(self, small_graph):
        ins = small_graph.in_degrees()
        assert ins.sum() == small_graph.num_edges
        # In-degree is the property-access frequency: recompute directly.
        expected = np.bincount(
            small_graph.indices, minlength=small_graph.num_vertices
        )
        assert np.array_equal(ins, expected)

    def test_average_degree(self):
        g = CsrGraph.from_edges(np.array([0, 1]), np.array([1, 0]), 4)
        assert g.average_degree == pytest.approx(0.5)


class TestTranspose:
    def test_transpose_reverses_edges(self):
        g = CsrGraph.from_edges(np.array([0, 1]), np.array([1, 2]), 3)
        t = g.transpose()
        assert t.neighbors(1).tolist() == [0]
        assert t.neighbors(2).tolist() == [1]
        assert t.num_edges == g.num_edges

    def test_double_transpose_preserves_structure(self, small_graph):
        tt = small_graph.transpose().transpose()
        assert np.array_equal(tt.indptr, small_graph.indptr)
        # Neighbor multisets per vertex must match.
        for v in range(small_graph.num_vertices):
            assert sorted(tt.neighbors(v).tolist()) == sorted(
                small_graph.neighbors(v).tolist()
            )


class TestRelabel:
    def test_relabel_identity(self, small_graph):
        perm = np.arange(small_graph.num_vertices)
        g = small_graph.relabel(perm)
        assert np.array_equal(g.indptr, small_graph.indptr)
        assert np.array_equal(g.indices, small_graph.indices)

    def test_relabel_swaps(self):
        g = CsrGraph.from_edges(
            np.array([0, 0, 1]), np.array([1, 2, 2]), 3,
            weights=np.array([10, 20, 30]),
        )
        perm = np.array([2, 0, 1])  # 0->2, 1->0, 2->1
        r = g.relabel(perm)
        # Old vertex 1 (new 0) had edge to old 2 (new 1), weight 30.
        assert r.neighbors(0).tolist() == [1]
        assert r.weights[r.indptr[0]] == 30
        # Old vertex 0 (new 2) had edges to old 1,2 -> new 0,1.
        assert r.neighbors(2).tolist() == [0, 1]

    def test_relabel_rejects_non_permutation(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.relabel(
                np.zeros(small_graph.num_vertices, dtype=np.int64)
            )
        with pytest.raises(GraphError):
            small_graph.relabel(np.array([0, 1]))

    @pytest.mark.parametrize(
        "perm",
        [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [2, 1], [[0, 1, 2]]],
    )
    def test_relabel_rejects_bad_perms(self, perm):
        g = CsrGraph.from_edges(np.array([0, 1]), np.array([1, 2]), 3)
        with pytest.raises(GraphError, match="permutation"):
            g.relabel(np.array(perm, dtype=np.int64))

    def test_relabel_empty_graph(self):
        g = CsrGraph.from_edges(
            np.empty(0, np.int64), np.empty(0, np.int64), 0
        )
        assert g.relabel(np.empty(0, dtype=np.int64)).num_vertices == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    def test_relabel_equals_rebuilt_edge_list(self, dtype):
        """Relabeling equals building from the renamed edge list (each
        new source has one old source, whose neighbor order the stable
        build keeps)."""
        src, dst = _edges_with_duplicates_and_loops(3000, 20_000, seed=9)
        weights = np.arange(src.size, dtype=np.int64)
        g = CsrGraph.from_edges(src, dst, 3000, weights=weights)
        perm = np.random.default_rng(2).permutation(3000)
        r = g.relabel(perm.astype(dtype))
        gs, gd = g.edge_endpoints()
        indptr, indices, w = _reference_csr(
            perm[gs], perm[gd], 3000, g.weights
        )
        assert np.array_equal(r.indptr, indptr)
        assert np.array_equal(r.indices, indices)
        assert np.array_equal(r.weights, w)

    def test_relabel_preserves_edge_count_and_degrees(self, small_graph):
        rng = np.random.default_rng(5)
        perm = rng.permutation(small_graph.num_vertices)
        r = small_graph.relabel(perm)
        assert r.num_edges == small_graph.num_edges
        assert np.array_equal(
            np.sort(r.out_degrees()), np.sort(small_graph.out_degrees())
        )
        assert np.array_equal(
            np.sort(r.in_degrees()), np.sort(small_graph.in_degrees())
        )


class TestEdgeEndpoints:
    def test_roundtrip(self, small_graph):
        src, dst = small_graph.edge_endpoints()
        rebuilt = CsrGraph.from_edges(src, dst, small_graph.num_vertices)
        assert np.array_equal(rebuilt.indptr, small_graph.indptr)
        assert np.array_equal(rebuilt.indices, small_graph.indices)

    def test_with_weights(self, small_graph):
        w = np.arange(small_graph.num_edges)
        g = small_graph.with_weights(w)
        assert g.weights is not None
        assert g.num_edges == small_graph.num_edges
