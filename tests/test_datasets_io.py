"""Unit tests for the dataset registry and graph I/O."""

import numpy as np
import pytest

from repro.errors import DatasetError, GraphError
from repro.graph.datasets import (
    DATASETS,
    EVALUATION_DATASETS,
    clear_dataset_cache,
    dataset_names,
    load_dataset,
)
from repro.graph.generators import uniform_graph
from repro.graph.io import (
    load_edge_list,
    on_disk_bytes,
    save_edge_list,
)


class TestRegistry:
    def test_evaluation_datasets_registered(self):
        for name in EVALUATION_DATASETS:
            assert name in DATASETS

    def test_load_by_alias(self):
        small = load_dataset("test-small")
        assert small.graph.num_vertices == 512
        assert load_dataset("test-small") is small  # cached

    def test_paper_aliases(self):
        spec = DATASETS["kron-s"]
        assert "Kr25" in spec.paper_name

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("no-such-graph")

    def test_weighted_variant_is_separate(self):
        a = load_dataset("test-small")
        b = load_dataset("test-small", weighted=True)
        assert a.graph.weights is None
        assert b.graph.weights is not None

    def test_clear_cache(self):
        a = load_dataset("test-small")
        clear_dataset_cache()
        b = load_dataset("test-small")
        assert a is not b

    def test_names(self):
        assert "kron-s" in dataset_names()


class TestScaledTable2:
    """The scaled datasets must preserve Table 2's relative shape."""

    @pytest.mark.slow
    def test_sizes(self):
        kron = load_dataset("kron-s").graph
        twitter = load_dataset("twitter-s").graph
        web = load_dataset("web-s").graph
        wiki = load_dataset("wiki-s").graph
        # Wikipedia is the smallest input, as in the paper.
        assert wiki.num_edges < min(
            kron.num_edges, twitter.num_edges, web.num_edges
        )
        # Twitter has the highest average degree of the big three.
        assert twitter.average_degree > kron.average_degree
        # Web has the most vertices of the crawls (tied with kron scale).
        assert web.num_vertices >= twitter.num_vertices


class TestIo:
    def test_edge_list_roundtrip(self, tmp_path):
        g = uniform_graph(32, 100, seed=2, weighted=True)
        path = str(tmp_path / "g.el")
        save_edge_list(g, path)
        loaded = load_edge_list(path, num_vertices=32)
        assert np.array_equal(loaded.indptr, g.indptr)
        assert np.array_equal(loaded.indices, g.indices)
        assert np.array_equal(loaded.weights, g.weights)

    def test_edge_list_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# comment\n\n0 1\n1 2 7\n")
        with pytest.raises(GraphError):
            load_edge_list(str(path))  # mixed weighted/unweighted

    def test_edge_list_unweighted(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# c\n0 1\n1 0\n")
        g = load_edge_list(str(path))
        assert g.num_vertices == 2
        assert g.num_edges == 2

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            load_edge_list(str(path))

    def test_on_disk_bytes(self):
        g = uniform_graph(10, 50, seed=1)
        assert on_disk_bytes(g) == (11 + 50) * 8
        gw = uniform_graph(10, 50, seed=1, weighted=True)
        assert on_disk_bytes(gw) == (11 + 50 + 50) * 8
