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

Streams are deferred (:meth:`AccessStream.deferred
<repro.tlb.trace.AccessStream.deferred>`): a kernel advances its own
state (frontier, distances, labels, ranks) eagerly at every step, but
the stream's columns are only built when the machine reads them to
translate, one block of about :data:`_BLOCK` accesses at a time, so no
stream-length column exists on the way to the trace.  A stream whose
outcome the machine replays from another cell is never built.  The block
builders capture the kernel's frontier, edge position and target arrays
without copying, which is sound because no kernel writes to those arrays
after yielding them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Iterator, Optional

import numpy as np

from ..errors import WorkloadError
from ..graph.csr import CsrGraph, concat_ranges
from ..tlb.trace import AccessStream, Columns

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

_BLOCK = 1 << 17
"""Accesses a deferred stream builds per block, about as many as the
process translates per pass: a block's columns are a few MB however
long the stream is."""


class Workload(ABC):
    """A graph kernel that can be simulated on a machine.

    Subclasses define the data structures they map (:meth:`array_ids`
    and element counts via :meth:`array_elements`) and generate their
    access streams in :meth:`run`.
    """

    name: str = "workload"

    def __init__(self, graph: CsrGraph) -> None:
        if graph.num_vertices == 0:
            raise WorkloadError(
                f"{type(self).__name__} needs a graph with at least one "
                "vertex"
            )
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
        edge_positions: Optional[np.ndarray],
        property_targets: np.ndarray,
        with_values: bool = False,
        with_source_property: bool = False,
        source_rank_reads: bool = False,
    ) -> AccessStream:
        """One frontier pass's interleaved access stream, deferred: its
        length is known at once, its columns are built block by block as
        they are read.

        Every access is written straight to its program-order slot.
        Edge ``e`` contributes ``per_edge`` consecutive slots (edge,
        [value,] property).  Vertex ``i``'s ``kv`` reads land just
        before edge ``off_i``, the degree prefix sum of the frontier up
        to ``i``.  So edge ``e``, slot ``t`` lands at ``e * per_edge +
        t + kv * #{i : off_i <= e}``.  Vertices sharing one offset (runs
        of zero-degree vertices) emit their reads kind by kind: every
        ``indptr[u]`` read, then every ``indptr[u+1]`` read, then the
        source-property and the rank reads, each in frontier order.

        Args:
            frontier: worklist vertex ids, in processing order.
            edge_positions: edge-array indices of every processed edge,
                grouped by frontier vertex (``concat_ranges`` output), or
                ``None`` when the pass walks the whole edge array in order
                (edge ``e`` at index ``e``): that column is then built
                from a range, and only while the stream is built.
            property_targets: property-array index accessed per edge
                (the indirect ``edge_array[e]`` destination).
            with_values: also read the values array per edge (SSSP).
            with_source_property: read ``prop[u]`` once per worklist
                vertex before its edges (SSSP reads the source distance).
            source_rank_reads: read ``rank[u]`` once per worklist vertex
                (PageRank's contribution fetch).

        Returns:
            The program-ordered access stream (deferred).
        """
        num_edges = int(property_targets.size)
        kv = 2 + int(with_source_property) + int(source_rank_reads)
        total = num_edges * (3 if with_values else 2) + frontier.size * kv
        return AccessStream.deferred(
            total,
            partial(
                _edge_phase_blocks,
                self.graph.indptr,
                frontier,
                edge_positions,
                property_targets,
                with_values,
                with_source_property,
                source_rank_reads,
            ),
        )

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
        return AccessStream.deferred(
            count, partial(_sequential_blocks, array_id, count)
        )


def _sequential_blocks(array_id: int, count: int) -> Iterator[Columns]:
    """The blocks of :meth:`Workload.sequential_pass_stream`."""
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        yield (
            np.full(hi - lo, array_id, dtype=np.uint8),
            np.arange(lo, hi, dtype=np.int64),
        )


def _edge_phase_blocks(
    indptr: np.ndarray,
    frontier: np.ndarray,
    edge_positions: Optional[np.ndarray],
    property_targets: np.ndarray,
    with_values: bool,
    with_source_property: bool,
    source_rank_reads: bool,
) -> Iterator[Columns]:
    """The blocks of :meth:`Workload.edge_phase_stream`, in order.

    The frontier's degree offsets are computed once.  The frontier is
    cut only before a vertex whose offset rises, so the block before
    the cut ends exactly where that vertex's reads begin: it holds every
    earlier vertex's reads and every edge below the cut's offset.  A
    group of vertices sharing one offset is never split.  Cuts are
    placed greedily, each at the last candidate at most :data:`_BLOCK`
    accesses past the previous one; a vertex whose edge burst alone is
    longer makes one oversized block.
    """
    num_edges = int(property_targets.size)
    per_edge = 3 if with_values else 2
    kv = 2 + int(with_source_property) + int(source_rank_reads)
    n = frontier.size
    total = num_edges * per_edge + n * kv
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(np.diff(indptr)[frontier[:-1]], out=offsets[1:])
    # Candidate cuts: vertices whose offset rises, with the stream
    # position of their first read.
    rise = np.flatnonzero(offsets[1:] != offsets[:-1]) + 1
    rise_at = offsets[rise] * per_edge + kv * rise
    cuts, at = [0], 0
    while total - at > _BLOCK:
        k = int(np.searchsorted(rise_at, at + _BLOCK, side="right")) - 1
        if k < 0 or rise_at[k] <= at:  # one burst fills the block
            k = int(np.searchsorted(rise_at, at, side="right"))
            if k == rise.size:
                break
        cuts.append(int(rise[k]))
        at = int(rise_at[k])
    edge_cuts = [0] + [int(offsets[c]) for c in cuts[1:]] + [num_edges]
    cuts.append(n)
    for i in range(len(cuts) - 1):
        lo, hi = cuts[i], cuts[i + 1]
        yield _edge_phase_block(
            frontier[lo:hi],
            offsets[lo:hi],
            edge_cuts[i],
            edge_cuts[i + 1],
            edge_positions,
            property_targets,
            with_values,
            with_source_property,
            source_rank_reads,
        )


def _edge_phase_block(
    frontier: np.ndarray,
    offsets: np.ndarray,
    edge_lo: int,
    edge_hi: int,
    edge_positions: Optional[np.ndarray],
    property_targets: np.ndarray,
    with_values: bool,
    with_source_property: bool,
    source_rank_reads: bool,
) -> Columns:
    """The columns of one block: ``frontier``'s vertex reads, at the
    frontier-wide degree ``offsets``, woven into edges ``[edge_lo,
    edge_hi)`` (see :meth:`Workload.edge_phase_stream`)."""
    num_edges = edge_hi - edge_lo
    if edge_positions is None:
        edge_positions = np.arange(edge_lo, edge_hi, dtype=np.int64)
    else:
        edge_positions = edge_positions[edge_lo:edge_hi]
    property_targets = property_targets[edge_lo:edge_hi]
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

    offsets = offsets - edge_lo

    # Edge slots: shifted by the vertex reads placed before them.
    dest = np.bincount(offsets, minlength=num_edges + 1)[:num_edges]
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
    vdest = offsets * per_edge + (kv - 1) * first + np.arange(n)
    for array_id, ids in vertex_reads:
        array_ids[vdest] = array_id
        indices[vdest] = ids
        vdest += size
    return array_ids, indices


def unique_vertices(ids: np.ndarray, num_vertices: int) -> np.ndarray:
    """The sorted distinct vertex ids in the ``int64`` array ``ids``,
    exactly what ``np.unique`` returns: a frontier's dedup.

    A candidate list at least a sixteenth of ``V`` long is deduplicated
    through a ``V``-long mask, in linear time and without a sort.  A
    shorter one, such as a deep road-graph level's, is sorted by
    ``np.unique`` instead, so no level pays ``O(V)`` for a few ids.
    """
    if ids.size * 16 >= num_vertices:
        seen = np.zeros(num_vertices, dtype=bool)
        seen[ids] = True
        return np.flatnonzero(seen)
    return np.unique(ids)


def default_root(graph: CsrGraph) -> int:
    """Deterministic traversal root: the highest out-degree vertex.

    The paper picks roots that reach most of the network; the biggest
    hub is a reproducible stand-in.
    """
    return int(np.argmax(np.diff(graph.indptr)))
