"""Breadth-First Search (paper §3.2).

Level-synchronous push-based BFS: the worklist holds the current
frontier; processing a vertex scans its neighbor list and conditionally
updates unvisited neighbors' hop counts in the property array — one
pointer-indirect property access per edge, the access pattern the paper
identifies as the primary TLB bottleneck.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..graph.csr import CsrGraph
from ..tlb.trace import AccessStream
from .base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VERTEX,
    Workload,
    default_root,
    unique_vertices,
)

UNVISITED = -1
"""Property value for a vertex that has not been reached."""


class Bfs(Workload):
    """Breadth-first search from a root vertex.

    The property array holds hop counts (``UNVISITED`` initially); the
    result equals the shortest unweighted distance for every reachable
    vertex.
    """

    name = "bfs"

    def __init__(self, graph: CsrGraph, root: Optional[int] = None) -> None:
        super().__init__(graph)
        self.root = default_root(graph) if root is None else root
        self.distances = np.full(graph.num_vertices, UNVISITED, dtype=np.int64)
        self.iterations = 0

    def array_ids(self) -> tuple[int, ...]:
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_PROPERTY)

    def run(self) -> Iterator[AccessStream]:
        graph = self.graph
        distances = self.distances
        distances[:] = UNVISITED
        distances[self.root] = 0
        frontier = np.array([self.root], dtype=np.int64)
        level = 0
        self.iterations = 0
        while frontier.size:
            edge_positions, targets = self.gather_frontier_edges(frontier)
            yield self.edge_phase_stream(frontier, edge_positions, targets)
            level += 1
            self.iterations += 1
            unvisited = targets[distances[targets] == UNVISITED]
            frontier = unique_vertices(unvisited, graph.num_vertices)
            distances[frontier] = level

    def result(self) -> np.ndarray:
        """Hop counts per vertex (``UNVISITED`` if unreachable)."""
        return self.distances
