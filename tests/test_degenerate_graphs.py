"""Degenerate graphs through every kernel, on both translation engines.

A graph with no edges maps zero-length edge arrays, which the process
skips instead of mapping; a graph with no vertices has no traversal
root and is rejected up front.  The metamorphic half: padding a graph
with isolated vertices leaves every original vertex's BFS and SSSP
result unchanged, and leaves the new vertices unreached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import tiny
from repro.errors import WorkloadError
from repro.graph.csr import CsrGraph
from repro.machine.machine import Machine
from repro.mem.thp import ThpPolicy
from repro.workloads.bfs import UNVISITED
from repro.workloads.registry import create_workload
from repro.workloads.sssp import INFINITY

GRAPHS = {
    "one-vertex": ([], [], 1),
    "edgeless": ([], [], 4),
    "self-loops": ([0, 1, 1], [0, 1, 0], 2),
    "disconnected": ([0, 1, 2, 3], [1, 0, 3, 2], 5),
}
"""name -> (sources, destinations, vertex count)."""

KERNELS = ("bfs", "sssp", "pagerank")
UNREACHED = {"bfs": UNVISITED, "sssp": INFINITY}
ENGINES = ("exact", "batch")


def _graph(name: str, padding: int = 0) -> CsrGraph:
    src, dst, num_vertices = GRAPHS[name]
    return CsrGraph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        num_vertices + padding,
        weights=np.arange(1, len(src) + 1),
    )


def _run(graph: CsrGraph, kernel: str, engine: str):
    workload = create_workload(kernel, graph)
    metrics = Machine(tiny(), ThpPolicy.always(), tlb_engine=engine).run(
        workload
    )
    return metrics, workload.result().copy()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_engines_agree_on_degenerate_graphs(name, kernel):
    (exact, exact_result), (batch, batch_result) = (
        _run(_graph(name), kernel, engine) for engine in ENGINES
    )
    assert exact.summary() == batch.summary()
    assert np.array_equal(exact_result, batch_result)
    assert exact.translation.accesses.sum() > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kernel", ("bfs", "sssp"))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_isolated_vertices_leave_traversals_unchanged(name, kernel, engine):
    num_vertices = GRAPHS[name][2]
    _, base = _run(_graph(name), kernel, engine)
    _, padded = _run(_graph(name, padding=3), kernel, engine)
    assert np.array_equal(padded[:num_vertices], base)
    assert (padded[num_vertices:] == UNREACHED[kernel]).all()


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_graph_is_rejected(kernel):
    graph = CsrGraph.from_edges([], [], 0, weights=[])
    with pytest.raises(WorkloadError, match="at least one vertex"):
        create_workload(kernel, graph)
