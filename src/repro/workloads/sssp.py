"""Single-Source Shortest Paths (paper §3.2).

Push-based frontier Bellman-Ford: the worklist holds vertices whose
distance improved in the previous round; processing a vertex relaxes all
outgoing edges, reading the values array per edge and conditionally
updating the destination's distance in the property array.

SSSP touches one more large array than BFS/PR (the values array, read
once per edge in lockstep with the edge array), which is why its
footprints in Table 2 are ~1.5x the BFS footprints.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..errors import WorkloadError
from ..graph.csr import CsrGraph
from ..tlb.trace import AccessStream
from .base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VALUES,
    ARRAY_VERTEX,
    Workload,
    default_root,
    unique_vertices,
)

INFINITY = np.iinfo(np.int64).max
"""Property value for an unreached vertex."""


class Sssp(Workload):
    """Shortest weighted distances from a root vertex.

    Requires a weighted graph (a values array).  The result equals
    Dijkstra's output for non-negative weights; the frontier formulation
    may relax an edge more than once, exactly like the paper's push-based
    reference implementation.
    """

    name = "sssp"

    def __init__(self, graph: CsrGraph, root: Optional[int] = None) -> None:
        super().__init__(graph)
        if graph.weights is None:
            raise WorkloadError("SSSP needs a weighted graph (values array)")
        self.root = default_root(graph) if root is None else root
        self.distances = np.full(graph.num_vertices, INFINITY, dtype=np.int64)
        self.iterations = 0

    def array_ids(self) -> tuple[int, ...]:
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_VALUES, ARRAY_PROPERTY)

    def run(self) -> Iterator[AccessStream]:
        graph = self.graph
        weights = graph.weights
        distances = self.distances
        distances[:] = INFINITY
        distances[self.root] = 0
        frontier = np.array([self.root], dtype=np.int64)
        self.iterations = 0
        while frontier.size:
            edge_positions, targets = self.gather_frontier_edges(frontier)
            yield self.edge_phase_stream(
                frontier,
                edge_positions,
                targets,
                with_values=True,
                with_source_property=True,
            )
            self.iterations += 1
            degrees = graph.indptr[frontier + 1] - graph.indptr[frontier]
            sources = np.repeat(frontier, degrees)
            candidates = distances[sources] + weights[edge_positions]
            before = distances[targets]
            np.minimum.at(distances, targets, candidates)
            improved = targets[distances[targets] < before]
            frontier = unique_vertices(improved, graph.num_vertices)

    def result(self) -> np.ndarray:
        """Weighted distances per vertex (``INFINITY`` if unreachable)."""
        return self.distances
