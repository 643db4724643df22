"""Workload interface and the shared access-trace builder.

A workload is an iterator of :class:`~repro.tlb.trace.AccessStream`
objects, one per algorithm iteration (frontier/worklist pass), plus the
metadata the machine needs to lay its arrays out in simulated virtual
memory.

The trace builder reproduces the access interleaving of the paper's
Fig. 4 inner loops: for each worklist vertex ``u`` the kernel reads
``vertex_array[u]`` and ``vertex_array[u+1]``, then for each of ``u``'s
edges reads the edge array entry (and the values array entry for
weighted algorithms) and performs the pointer-indirect property access
``prop_array[edge_array[e]]`` — the access highlighted gray in Fig. 4
that the paper identifies as the dominant source of TLB misses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from ..graph.csr import CsrGraph, concat_ranges
from ..tlb.trace import AccessStream

ARRAY_VERTEX = 0
"""CSR vertex array (``indptr``): sequential, small."""

ARRAY_EDGE = 1
"""CSR edge array (``indices``): sequential within a vertex, large."""

ARRAY_VALUES = 2
"""CSR values array (edge weights): parallels the edge array (SSSP)."""

ARRAY_PROPERTY = 3
"""Per-vertex property array: pointer-indirect, the TLB-miss hot spot."""

ARRAY_RANK = 4
"""PageRank's per-vertex source-rank array (read sequentially)."""

ARRAY_NAMES = {
    ARRAY_VERTEX: "vertex_array",
    ARRAY_EDGE: "edge_array",
    ARRAY_VALUES: "values_array",
    ARRAY_PROPERTY: "property_array",
    ARRAY_RANK: "rank_array",
}
"""Array id -> report name."""


class Workload(ABC):
    """A graph kernel that can be simulated on a machine.

    Subclasses define the data structures they map (:meth:`array_ids`
    and element counts via :meth:`array_elements`) and generate their
    access streams in :meth:`run`.
    """

    name: str = "workload"

    def __init__(self, graph: CsrGraph) -> None:
        self.graph = graph

    @abstractmethod
    def array_ids(self) -> tuple[int, ...]:
        """The data structures this kernel uses, in natural allocation
        order (the order the initialization code allocates them; the
        property array comes last, as in the paper's reference code)."""

    def array_elements(self, array_id: int) -> int:
        """Number of elements in the given array."""
        graph = self.graph
        if array_id == ARRAY_VERTEX:
            return graph.num_vertices + 1
        if array_id == ARRAY_EDGE:
            return graph.num_edges
        if array_id == ARRAY_VALUES:
            return graph.num_edges
        if array_id in (ARRAY_PROPERTY, ARRAY_RANK):
            return graph.num_vertices
        raise ValueError(f"unknown array id {array_id}")

    @abstractmethod
    def run(self) -> Iterator[AccessStream]:
        """Execute the kernel, yielding one access stream per iteration.

        Implementations must also compute the *semantic* result so
        correctness can be checked against reference oracles."""

    @abstractmethod
    def result(self) -> np.ndarray:
        """The final property array (after :meth:`run` is exhausted)."""

    # ------------------------------------------------------------------
    # Shared trace construction
    # ------------------------------------------------------------------

    def edge_phase_stream(
        self,
        frontier: np.ndarray,
        edge_positions: np.ndarray,
        property_targets: np.ndarray,
        with_values: bool = False,
        with_source_property: bool = False,
        source_rank_reads: bool = False,
    ) -> AccessStream:
        """Build one frontier pass's interleaved access stream.

        Every access is written straight to its program-order slot.
        Edge ``e`` contributes ``per_edge`` consecutive slots (edge,
        [value,] property).  Vertex ``i``'s ``kv`` reads land just
        before edge ``min(off_i, E)``, where ``off_i`` is the degree
        prefix sum of the frontier up to ``i`` (from ``self.graph``, even
        when ``edge_positions`` come from another graph) and ``E`` the
        edge count.  So edge ``e``, slot ``t`` lands at ``e * per_edge +
        t + kv * #{i : off_i <= e}``.  Vertices sharing one offset (runs
        of zero-degree vertices) emit their reads kind by kind: every
        ``indptr[u]`` read, then every ``indptr[u+1]`` read, then the
        source-property and the rank reads, each in frontier order.

        Args:
            frontier: worklist vertex ids, in processing order.
            edge_positions: edge-array indices of every processed edge,
                grouped by frontier vertex (``concat_ranges`` output).
            property_targets: property-array index accessed per edge
                (the indirect ``edge_array[e]`` destination).
            with_values: also read the values array per edge (SSSP).
            with_source_property: read ``prop[u]`` once per worklist
                vertex before its edges (SSSP reads the source distance).
            source_rank_reads: read ``rank[u]`` once per worklist vertex
                (PageRank's contribution fetch).

        Returns:
            The program-ordered access stream.
        """
        num_edges = int(edge_positions.size)
        per_edge = 3 if with_values else 2
        vertex_ids = frontier.astype(np.int64)
        vertex_reads = [
            (ARRAY_VERTEX, vertex_ids),
            (ARRAY_VERTEX, vertex_ids + 1),
        ]
        if with_source_property:
            vertex_reads.append((ARRAY_PROPERTY, vertex_ids))
        if source_rank_reads:
            vertex_reads.append((ARRAY_RANK, vertex_ids))
        kv = len(vertex_reads)
        n = vertex_ids.size
        total = num_edges * per_edge + n * kv
        array_ids = np.empty(total, dtype=np.uint8)
        indices = np.empty(total, dtype=np.int64)

        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(np.diff(self.graph.indptr)[frontier[:-1]], out=offsets[1:])
        clamped = np.minimum(offsets, num_edges)

        # Edge slots: shifted by the vertex reads placed before them.
        dest = np.bincount(clamped, minlength=num_edges + 1)[:num_edges]
        np.cumsum(dest, out=dest)
        dest *= kv
        dest += np.arange(0, num_edges * per_edge, per_edge)
        array_ids[dest] = ARRAY_EDGE
        indices[dest] = edge_positions
        if with_values:
            array_ids[dest + 1] = ARRAY_VALUES
            indices[dest + 1] = edge_positions
        dest += per_edge - 1
        array_ids[dest] = ARRAY_PROPERTY
        indices[dest] = property_targets

        # Vertex slots: a group of vertices sharing one offset fills a
        # block of ``kv * size`` slots, kind-major.
        starts = np.ones(n, dtype=bool)
        np.not_equal(offsets[1:], offsets[:-1], out=starts[1:])
        firsts = np.flatnonzero(starts)
        group = np.cumsum(starts) - 1
        first = firsts[group]
        size = np.diff(np.append(firsts, n))[group]
        vdest = clamped * per_edge + (kv - 1) * first + np.arange(n)
        for array_id, ids in vertex_reads:
            array_ids[vdest] = array_id
            indices[vdest] = ids
            vdest += size
        return AccessStream(array_ids, indices)

    def gather_frontier_edges(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Edge-array positions and destinations for a worklist.

        Returns ``(edge_positions, destinations)`` grouped by frontier
        vertex in order.
        """
        graph = self.graph
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        edge_positions = concat_ranges(starts, counts)
        return edge_positions, graph.indices[edge_positions]

    def sequential_pass_stream(
        self, array_id: int, count: Optional[int] = None
    ) -> AccessStream:
        """A sequential sweep over one array (initialization passes,
        PageRank's end-of-iteration rank swap)."""
        if count is None:
            count = self.array_elements(array_id)
        return AccessStream(
            np.full(count, array_id, dtype=np.uint8),
            np.arange(count, dtype=np.int64),
        )


def default_root(graph: CsrGraph) -> int:
    """Deterministic traversal root: the highest out-degree vertex.

    The paper picks roots that reach most of the network; the biggest
    hub is a reproducible stand-in.
    """
    return int(np.argmax(np.diff(graph.indptr)))
