"""Workload correctness tests against networkx oracles.

The kernels must be semantically correct graph algorithms — the paper's
experiments only make sense if the traced execution is a real BFS/SSSP/
PageRank.
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.graph.csr import CsrGraph
from repro.graph.generators import path_graph, uniform_graph
from repro.workloads.base import default_root, unique_vertices
from repro.workloads.bfs import UNVISITED, Bfs
from repro.workloads.pagerank import PageRank
from repro.workloads.registry import (
    create_workload,
    workload_names,
    workload_needs_weights,
)
from repro.workloads.sssp import INFINITY, Sssp


def drain(workload):
    """Run a workload to completion, returning total accesses traced."""
    return sum(len(stream) for stream in workload.run())


def to_networkx(graph: CsrGraph, weighted=False) -> nx.MultiDiGraph:
    """Oracle conversion.  MultiDiGraph is essential: the generators keep
    duplicate edges, and collapsing them would change both shortest paths
    (DiGraph keeps an arbitrary surviving weight) and PageRank mass."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_endpoints()
    if weighted:
        g.add_weighted_edges_from(
            zip(src.tolist(), dst.tolist(), graph.weights.tolist())
        )
    else:
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


class TestBfs:
    def test_path_graph_distances(self):
        bfs = Bfs(path_graph(6), root=0)
        drain(bfs)
        assert bfs.result().tolist() == [0, 1, 2, 3, 4, 5]

    def test_matches_networkx(self, small_graph):
        root = default_root(small_graph)
        bfs = Bfs(small_graph, root=root)
        drain(bfs)
        expected = nx.single_source_shortest_path_length(
            to_networkx(small_graph), root
        )
        result = bfs.result()
        for v in range(small_graph.num_vertices):
            if v in expected:
                assert result[v] == expected[v], v
            else:
                assert result[v] == UNVISITED, v

    def test_unreachable_marked(self):
        g = CsrGraph.from_edges(np.array([0]), np.array([1]), 3)
        bfs = Bfs(g, root=0)
        drain(bfs)
        assert bfs.result().tolist() == [0, 1, UNVISITED]

    def test_rerun_is_idempotent(self, small_graph):
        bfs = Bfs(small_graph, root=0)
        drain(bfs)
        first = bfs.result().copy()
        drain(bfs)
        assert np.array_equal(bfs.result(), first)


class TestSssp:
    def test_requires_weights(self, small_graph):
        with pytest.raises(WorkloadError):
            Sssp(small_graph)

    def test_matches_dijkstra(self, small_weighted_graph):
        root = default_root(small_weighted_graph)
        sssp = Sssp(small_weighted_graph, root=root)
        drain(sssp)
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(small_weighted_graph, weighted=True), root
        )
        result = sssp.result()
        for v in range(small_weighted_graph.num_vertices):
            if v in expected:
                assert result[v] == expected[v], v
            else:
                assert result[v] == INFINITY, v

    def test_weighted_path(self):
        g = path_graph(5, weighted=True)
        sssp = Sssp(g, root=0)
        drain(sssp)
        assert sssp.result().tolist() == [0, 1, 2, 3, 4]


class TestPageRank:
    def test_matches_networkx(self, small_graph):
        pr = PageRank(small_graph, max_iterations=100, epsilon=1e-10)
        drain(pr)
        assert pr.converged
        expected = nx.pagerank(
            to_networkx(small_graph), alpha=0.85, tol=1e-12, max_iter=200
        )
        result = pr.result()
        assert result.sum() == pytest.approx(1.0, abs=1e-6)
        for v in range(small_graph.num_vertices):
            assert result[v] == pytest.approx(expected[v], abs=1e-4), v

    def test_iteration_cap(self, small_graph):
        pr = PageRank(small_graph, max_iterations=2)
        drain(pr)
        assert pr.iterations == 2

    def test_dangling_mass_conserved(self):
        # Vertex 2 is dangling (no out-edges).
        g = CsrGraph.from_edges(np.array([0, 1]), np.array([2, 2]), 3)
        pr = PageRank(g, max_iterations=50, epsilon=1e-12)
        drain(pr)
        assert pr.result().sum() == pytest.approx(1.0, abs=1e-9)


class TestUniqueVertices:
    @pytest.mark.parametrize("size", [0, 1, 5, 63, 64, 65, 1000, 5000])
    def test_equals_np_unique(self, size):
        """Byte-equal to ``np.unique`` on both sides of the mask
        threshold (``size * 16 >= V``, here at 64 of 1000 vertices)."""
        ids = np.random.default_rng(size).integers(0, 1000, size=size)
        expected = np.unique(ids)
        got = unique_vertices(ids, 1000)
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()

    def test_empty_graph(self):
        got = unique_vertices(np.empty(0, dtype=np.int64), 0)
        assert got.dtype == np.int64 and got.size == 0


class TestRegistry:
    def test_names(self):
        assert set(workload_names()) == {"bfs", "sssp", "pagerank", "cc"}

    def test_create(self, small_weighted_graph):
        for name in workload_names():
            w = create_workload(name, small_weighted_graph)
            assert w.name == name

    def test_unknown(self, small_graph):
        with pytest.raises(WorkloadError):
            create_workload("bellman", small_graph)

    def test_needs_weights(self):
        assert workload_needs_weights("sssp")
        assert not workload_needs_weights("bfs")
        assert not workload_needs_weights("pagerank")

    def test_default_root_is_biggest_hub(self):
        g = CsrGraph.from_edges(
            np.array([2, 2, 2, 0]), np.array([0, 1, 3, 1]), 4
        )
        assert default_root(g) == 2
