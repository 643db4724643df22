"""Connected Components (extension workload).

§3.2 of the paper notes BFS "forms the basic building block of many
other graph applications such as ... Connected Components".  This module
implements CC as a push-based label-propagation kernel over the
symmetrized network — the standard formulation in graph suites (GAPBS's
``cc``), with the same data-structure shape the paper studies: CSR
arrays read sequentially, per-vertex labels updated pointer-indirectly
in the property array.

Because propagation must flow both ways, the kernel builds the
symmetrized edge array (forward plus reverse edges) during
initialization; the traced footprint reflects that doubled edge array,
just as a real CC implementation's would.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..graph.csr import CsrGraph
from ..tlb.trace import AccessStream
from .base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VERTEX,
    Workload,
    unique_vertices,
)


def symmetrize(graph: CsrGraph) -> CsrGraph:
    """The undirected view: every edge plus its reverse."""
    src, dst = graph.edge_endpoints()
    return CsrGraph.from_edges(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        graph.num_vertices,
    )


class ConnectedComponents(Workload):
    """Label propagation: every vertex adopts the minimum label among
    itself and its (undirected) neighbors until no label changes.

    The result assigns each vertex the minimum original vertex id in its
    weakly connected component.
    """

    name = "cc"

    def __init__(self, graph: CsrGraph) -> None:
        super().__init__(graph)
        self.sym = symmetrize(graph)
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)
        self.iterations = 0

    def array_ids(self) -> tuple[int, ...]:
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_PROPERTY)

    def array_elements(self, array_id: int) -> int:
        # The traced arrays belong to the symmetrized CSR.
        if array_id == ARRAY_EDGE:
            return self.sym.num_edges
        if array_id == ARRAY_VERTEX:
            return self.sym.num_vertices + 1
        return super().array_elements(array_id)

    def run(self) -> Iterator[AccessStream]:
        sym = self.sym
        labels = self.labels
        labels[:] = np.arange(sym.num_vertices, dtype=np.int64)
        frontier = np.arange(sym.num_vertices, dtype=np.int64)
        self.iterations = 0
        while frontier.size:
            starts = sym.indptr[frontier]
            counts = sym.indptr[frontier + 1] - starts
            from ..graph.csr import concat_ranges

            edge_positions = concat_ranges(starts, counts)
            targets = sym.indices[edge_positions]
            yield self.edge_phase_stream(
                frontier,
                edge_positions,
                targets,
                with_source_property=True,
            )
            self.iterations += 1
            sources = np.repeat(frontier, counts)
            candidates = labels[sources]
            before = labels[targets]
            np.minimum.at(labels, targets, candidates)
            improved = targets[labels[targets] < before]
            frontier = unique_vertices(improved, sym.num_vertices)

    def result(self) -> np.ndarray:
        """Component label per vertex (min vertex id in the component)."""
        return self.labels

    def num_components(self) -> int:
        """Number of weakly connected components found."""
        return int(np.unique(self.labels).size)
