"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    _RMAT_CHUNK,
    path_graph,
    power_law_graph,
    rmat_graph,
    uniform_graph,
)


def _reference_rmat(scale, num_edges, seed, shuffle_labels, weighted,
                    a=0.57, b=0.19, c=0.19):
    """R-MAT the straightforward way: one ``rng.random(num_edges)`` per
    level, int64 ids, and a stable int64 argsort for the CSR build."""
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(num_edges)
        src_bit = r >= a + b
        dst_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    if shuffle_labels:
        perm = rng.permutation(1 << scale).astype(np.int64)
        src = perm[src]
        dst = perm[dst]
    weights = rng.integers(1, 64, size=num_edges) if weighted else None
    order = np.argsort(src, kind="stable")
    indptr = np.zeros((1 << scale) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=1 << scale), out=indptr[1:])
    w = None if weights is None else weights[order]
    return indptr, dst[order], w


class TestRmat:
    def test_dimensions(self):
        g = rmat_graph(scale=10, num_edges=5000, seed=1)
        assert g.num_vertices == 1024
        assert g.num_edges == 5000

    def test_deterministic(self):
        a = rmat_graph(scale=8, num_edges=1000, seed=42)
        b = rmat_graph(scale=8, num_edges=1000, seed=42)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = rmat_graph(scale=8, num_edges=1000, seed=1)
        b = rmat_graph(scale=8, num_edges=1000, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_power_law_in_degrees(self):
        """R-MAT must produce a skewed in-degree distribution: the top
        1% of vertices receive far more than 1% of edges."""
        g = rmat_graph(scale=12, num_edges=65536, seed=3)
        ins = np.sort(g.in_degrees())[::-1]
        top = ins[: max(1, g.num_vertices // 100)].sum()
        assert top / g.num_edges > 0.08

    def test_shuffle_scatters_hubs(self):
        """With label shuffling, hot vertices are spread over the id
        space (no concentration in the low ids)."""
        g = rmat_graph(scale=12, num_edges=65536, seed=3,
                       shuffle_labels=True)
        ins = g.in_degrees()
        order = np.argsort(-ins)
        hot = order[: g.num_vertices // 20]
        # Hot ids should look uniform: mean near the middle.
        assert abs(hot.mean() / g.num_vertices - 0.5) < 0.15

    def test_unshuffled_hubs_at_low_ids(self):
        g = rmat_graph(scale=12, num_edges=65536, seed=3,
                       shuffle_labels=False)
        ins = g.in_degrees()
        order = np.argsort(-ins)
        hot = order[: g.num_vertices // 20]
        assert hot.mean() / g.num_vertices < 0.4

    def test_weighted(self):
        g = rmat_graph(scale=6, num_edges=100, seed=1, weighted=True)
        assert g.weights is not None
        assert (g.weights >= 1).all()

    @pytest.mark.parametrize(
        "num_edges",
        [0, 1, _RMAT_CHUNK - 1, _RMAT_CHUNK, _RMAT_CHUNK + 1,
         2 * _RMAT_CHUNK + 3],
    )
    @pytest.mark.parametrize("shuffle_labels", [True, False])
    def test_matches_reference_around_chunk_edges(
        self, num_edges, shuffle_labels
    ):
        """Chunked draws and uint32 ids reproduce the one-draw-per-level
        int64 generator bit for bit, including the weights drawn after
        it (which pins the RNG state the chunked draws leave)."""
        g = rmat_graph(scale=17, num_edges=num_edges, seed=5,
                       shuffle_labels=shuffle_labels, weighted=True)
        indptr, indices, weights = _reference_rmat(
            17, num_edges, 5, shuffle_labels, weighted=True
        )
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert np.array_equal(g.weights, weights)

    @pytest.mark.parametrize("abc", [(0.25, 0.25, 0.25), (1.0, 0.0, 0.0),
                                     (0.0, 0.0, 0.0), (0.1, 0.0, 0.9)])
    def test_matches_reference_for_any_probabilities(self, abc):
        a, b, c = abc
        g = rmat_graph(scale=9, num_edges=3000, a=a, b=b, c=c, seed=8,
                       weighted=True)
        indptr, indices, weights = _reference_rmat(
            9, 3000, 8, True, True, a=a, b=b, c=c
        )
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert np.array_equal(g.weights, weights)

    def test_scale_bounds(self):
        assert rmat_graph(scale=0, num_edges=3).neighbors(0).tolist() == [
            0, 0, 0
        ]
        with pytest.raises(GraphError, match="scale"):
            rmat_graph(scale=-1, num_edges=10)
        with pytest.raises(GraphError, match="scale"):
            rmat_graph(scale=32, num_edges=10)

    def test_negative_edge_count(self):
        with pytest.raises(GraphError, match="non-negative"):
            rmat_graph(scale=4, num_edges=-1)

    def test_invalid_probabilities(self):
        with pytest.raises(GraphError):
            rmat_graph(scale=4, num_edges=10, a=0.9, b=0.9, c=0.9)


class TestPowerLaw:
    def test_dimensions(self):
        g = power_law_graph(num_vertices=500, num_edges=3000, seed=1)
        assert g.num_vertices == 500
        assert g.num_edges == 3000

    def test_hubs_at_low_ids(self):
        g = power_law_graph(
            num_vertices=2000, num_edges=30000, alpha=1.0, seed=2
        )
        ins = g.in_degrees()
        # The first 5% of ids must receive a large share of edges.
        head = ins[: 100].sum()
        assert head / g.num_edges > 0.3

    def test_community_fraction_keeps_edges_local(self):
        g = power_law_graph(
            num_vertices=4096,
            num_edges=30000,
            alpha=0.5,
            community_fraction=0.9,
            community_size=256,
            seed=3,
        )
        src, dst = g.edge_endpoints()
        local = (src // 256) == (dst // 256)
        assert local.mean() > 0.6

    def test_hub_shuffle_scatters(self):
        g = power_law_graph(
            num_vertices=2000, num_edges=30000, alpha=1.0,
            hub_shuffle=1.0, seed=2,
        )
        ins = g.in_degrees()
        head = ins[:100].sum()
        assert head / g.num_edges < 0.3

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            power_law_graph(10, 10, community_fraction=1.5)
        with pytest.raises(GraphError):
            power_law_graph(10, 10, hub_shuffle=-0.1)

    @pytest.mark.parametrize("v,e", [(0, 10), (0, 0), (-1, 5), (10, -1)])
    def test_degenerate_sizes(self, v, e):
        with pytest.raises(GraphError):
            power_law_graph(num_vertices=v, num_edges=e)

    def test_deterministic(self):
        a = power_law_graph(100, 500, seed=9)
        b = power_law_graph(100, 500, seed=9)
        assert np.array_equal(a.indices, b.indices)


class TestUniformAndPath:
    def test_uniform(self):
        g = uniform_graph(100, 400, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 400

    @pytest.mark.parametrize("v,e", [(0, 3), (-1, 0), (5, -1)])
    def test_uniform_degenerate_sizes(self, v, e):
        with pytest.raises(GraphError):
            uniform_graph(num_vertices=v, num_edges=e)

    def test_uniform_empty(self):
        g = uniform_graph(0, 0)
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(4).tolist() == []

    def test_weighted_path(self):
        g = path_graph(4, weighted=True)
        assert g.weights.tolist() == [1, 1, 1]
