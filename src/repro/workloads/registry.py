"""Workload registry: name-based construction for the harness and CLI."""

from __future__ import annotations

from typing import Callable

from ..errors import WorkloadError
from ..graph.csr import CsrGraph
from .base import Workload
from .bfs import Bfs
from .pagerank import PageRank
from .sssp import Sssp

WORKLOADS: dict[str, Callable[..., Workload]] = {
    "bfs": Bfs,
    "sssp": Sssp,
    "pagerank": PageRank,
}
"""Name -> workload factory (the paper's three applications)."""

def workload_names() -> tuple[str, ...]:
    """All registered workload names."""
    return tuple(WORKLOADS)


def create_workload(name: str, graph: CsrGraph, **kwargs: object) -> Workload:
    """Instantiate a workload by registry name.

    Raises:
        WorkloadError: if the name is unknown.
    """
    factory = WORKLOADS.get(name.lower())
    if factory is None:
        known = ", ".join(sorted(WORKLOADS))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}")
    return factory(graph, **kwargs)


def workload_needs_weights(name: str) -> bool:
    """Whether the workload requires a values array (SSSP does)."""
    return name.lower() == "sssp"
