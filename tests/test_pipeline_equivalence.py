"""Byte-identity contract of the linear-time cell pipeline.

Three layers compute without a sort or a full scan what they once
computed with one; each property pins the new form to the old:

- ``Workload.edge_phase_stream`` writes every access to its slot
  directly; it must equal the stable argsort merge (:func:`merge_streams`,
  kept here as the oracle) over the fractional program positions;
- ``NodeMemory`` keeps free counters incrementally; after any sequence
  of allocator operations they must equal a recount of the frame map;
- ``SimProcess.translate`` takes a trace's per-array access totals from
  the raw array ids; they must equal the run-length-weighted totals.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.config import tiny
from repro.core.plan import PlacementPlan
from repro.errors import OutOfMemoryError
from repro.graph.csr import CsrGraph
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.mem.frag import Fragmenter
from repro.mem.memhog import Memhog
from repro.mem.noise import BackgroundNoise
from repro.mem.page_cache import PageCache
from repro.mem.physical import FrameState, NodeMemory
from repro.mem.stats import KernelLedger
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.tlb.trace import MAX_ARRAY_IDS, AccessStream, _access_totals, compress_trace
from repro.workloads.base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_RANK,
    ARRAY_VALUES,
    ARRAY_VERTEX,
    Workload,
)
from repro.workloads.layout import MemoryLayout
from repro.workloads.registry import create_workload


# ----------------------------------------------------------------------
# Oracle: the positional stable-argsort merge
# ----------------------------------------------------------------------


def merge_streams(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> AccessStream:
    """Merge sub-streams by program position into one stream.

    Each part is ``(positions, array_ids, indices)`` where ``positions``
    are fractional program-order coordinates.  A stable argsort
    interleaves them; ties keep part order, then in-part order.
    """
    positions = np.concatenate([p[0] for p in parts])
    array_ids = np.concatenate([p[1] for p in parts])
    indices = np.concatenate([p[2] for p in parts])
    order = np.argsort(positions, kind="stable")
    return AccessStream(array_ids[order].astype(np.uint8), indices[order])


def argsort_edge_phase_stream(
    graph: CsrGraph,
    frontier: np.ndarray,
    edge_positions: np.ndarray,
    property_targets: np.ndarray,
    with_values: bool = False,
    with_source_property: bool = False,
    source_rank_reads: bool = False,
) -> AccessStream:
    """The positional definition of a frontier pass's stream: per-edge
    accesses at integer positions, vertex ``u``'s reads woven in at
    fractional positions just before its first edge."""
    degrees = np.diff(graph.indptr)[frontier]
    num_edges = int(edge_positions.size)
    per_edge = 3 if with_values else 2
    edge_pos = np.arange(num_edges, dtype=np.float64) * per_edge
    parts = [
        (edge_pos, np.full(num_edges, ARRAY_EDGE, np.uint8), edge_positions),
        (
            edge_pos + (per_edge - 1),
            np.full(num_edges, ARRAY_PROPERTY, np.uint8),
            property_targets,
        ),
    ]
    if with_values:
        parts.append(
            (edge_pos + 1, np.full(num_edges, ARRAY_VALUES, np.uint8), edge_positions)
        )
    edge_offsets = np.zeros(frontier.size, dtype=np.float64)
    np.cumsum(degrees[:-1], out=edge_offsets[1:])
    base = edge_offsets * per_edge
    ids = frontier.astype(np.int64)
    vertex = np.full(frontier.size, ARRAY_VERTEX, np.uint8)
    parts.append((base - 0.9, vertex, ids))
    parts.append((base - 0.8, vertex, ids + 1))
    if with_source_property:
        parts.append((base - 0.5, np.full(frontier.size, ARRAY_PROPERTY, np.uint8), ids))
    if source_rank_reads:
        parts.append((base - 0.5, np.full(frontier.size, ARRAY_RANK, np.uint8), ids))
    return merge_streams(parts)


# ----------------------------------------------------------------------
# Scatter-built streams == argsort merge
# ----------------------------------------------------------------------


class _Probe(Workload):
    """Minimal workload: just the shared trace builder over a graph."""

    name = "probe"

    def array_ids(self):
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_PROPERTY)

    def run(self):  # pragma: no cover - never iterated
        return iter(())

    def result(self):  # pragma: no cover - never iterated
        return np.empty(0)


def _graph_with_zero_degree_runs(rng, num_vertices=60, num_edges=240):
    """A random graph where about half the vertices have no out-edges,
    so frontiers contain runs of vertices sharing one edge offset."""
    sources = rng.choice(num_vertices, size=num_vertices // 2, replace=False)
    src = rng.choice(sources, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    return CsrGraph.from_edges(src, dst, num_vertices)


FLAGS = list(itertools.product((False, True), repeat=3))


def _assert_streams_equal(got: AccessStream, want: AccessStream) -> None:
    assert got.array_ids.dtype == want.array_ids.dtype == np.uint8
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert np.array_equal(got.array_ids, want.array_ids)
    assert np.array_equal(got.indices, want.indices)


def _check(graph, frontier, edge_positions, targets, flags):
    with_values, with_source_property, source_rank_reads = flags
    kwargs = dict(
        with_values=with_values,
        with_source_property=with_source_property,
        source_rank_reads=source_rank_reads,
    )
    got = _Probe(graph).edge_phase_stream(
        frontier, edge_positions, targets, **kwargs
    )
    want = argsort_edge_phase_stream(
        graph, frontier, edge_positions, targets, **kwargs
    )
    _assert_streams_equal(got, want)


@pytest.mark.parametrize("flags", FLAGS)
def test_scatter_equals_argsort_on_random_frontiers(flags):
    rng = np.random.default_rng(sum(f << i for i, f in enumerate(flags)))
    for _ in range(25):
        graph = _graph_with_zero_degree_runs(rng)
        size = int(rng.integers(1, graph.num_vertices + 1))
        frontier = rng.permutation(graph.num_vertices)[:size]
        if rng.random() < 0.5:
            frontier = np.sort(frontier)
        probe = _Probe(graph)
        edge_positions, targets = probe.gather_frontier_edges(frontier)
        _check(graph, frontier, edge_positions, targets, flags)


@pytest.mark.parametrize("flags", FLAGS)
def test_scatter_equals_argsort_with_mismatched_degrees(flags):
    """Edges from one graph, degrees from another (as CC passes its
    symmetrized edges with the input graph's degrees): offsets may fall
    inside another vertex's edges or past the last edge."""
    rng = np.random.default_rng(100 + sum(f << i for i, f in enumerate(flags)))
    for _ in range(25):
        degree_graph = _graph_with_zero_degree_runs(
            rng, num_edges=int(rng.integers(0, 400))
        )
        edge_graph = _graph_with_zero_degree_runs(rng)
        frontier = rng.permutation(degree_graph.num_vertices)[
            : int(rng.integers(1, degree_graph.num_vertices + 1))
        ]
        edge_positions, targets = _Probe(edge_graph).gather_frontier_edges(
            frontier
        )
        _check(degree_graph, frontier, edge_positions, targets, flags)


@pytest.mark.parametrize("flags", FLAGS)
def test_scatter_equals_argsort_on_empty_frontier(flags):
    graph = uniform_graph(num_vertices=32, num_edges=128, seed=5)
    empty = np.empty(0, dtype=np.int64)
    _check(graph, empty, empty, empty, flags)


def test_scatter_tie_rule_on_a_zero_degree_run():
    """Vertices 0 and 1 have no edges, so 0, 1 and 2 share offset 0:
    all indptr[u] reads, then all indptr[u+1] reads, then the source
    property and rank reads, each in frontier order."""
    graph = CsrGraph(
        np.array([0, 0, 0, 1], dtype=np.int64), np.array([0], dtype=np.int64)
    )
    frontier = np.array([0, 1, 2], dtype=np.int64)
    stream = _Probe(graph).edge_phase_stream(
        frontier,
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        with_source_property=True,
        source_rank_reads=True,
    )
    V, E, P, R = ARRAY_VERTEX, ARRAY_EDGE, ARRAY_PROPERTY, ARRAY_RANK
    assert stream.array_ids.tolist() == [V, V, V, V, V, V, P, P, P, R, R, R, E, P]
    assert stream.indices.tolist() == [0, 1, 2, 1, 2, 3, 0, 1, 2, 0, 1, 2, 0, 0]


@pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank", "cc"])
def test_every_kernel_stream_equals_argsort(name, monkeypatch):
    """Each kernel's real frontier passes, CC's symmetrized edges
    included, build the same stream both ways."""
    graph = uniform_graph(num_vertices=256, num_edges=1024, seed=9, weighted=True)
    checked = []
    scatter = Workload.edge_phase_stream

    def both(self, frontier, edge_positions, targets, **kwargs):
        got = scatter(self, frontier, edge_positions, targets, **kwargs)
        want = argsort_edge_phase_stream(
            self.graph, frontier, edge_positions, targets, **kwargs
        )
        _assert_streams_equal(got, want)
        checked.append(len(got))
        return got

    monkeypatch.setattr(Workload, "edge_phase_stream", both)
    for _ in create_workload(name, graph).run():
        pass
    assert checked


# ----------------------------------------------------------------------
# Incremental free counters == recount of the frame map
# ----------------------------------------------------------------------


def _assert_counters_match(node: NodeMemory) -> None:
    free = node.state == FrameState.FREE
    per_region = free.reshape(node.num_regions, node.frames_per_region).sum(axis=1)
    assert np.array_equal(node.region_free_counts(), per_region)
    assert node.free_frame_count == int(free.sum())
    pristine = per_region == node.frames_per_region
    assert node.pristine_region_count() == int(pristine.sum())
    if free.any():
        expected = 1.0 - int(per_region[pristine].sum()) / int(free.sum())
    else:
        expected = 0.0
    assert node.fragmentation_level() == expected


class _Allocators:
    """Every frame-map writer, driven on one TINY node."""

    def __init__(self, seed: int) -> None:
        cfg = tiny()
        self.rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.node = NodeMemory(0, cfg, KernelLedger(cost=cfg.cost))
        self.vmm = VirtualMemoryManager(self.node, ThpPolicy.always(), cfg)
        self.vmm.swap_device = SwapDevice()
        self.cache = PageCache([self.node])
        self.hog = Memhog(self.node)
        self.frag = Fragmenter(self.node)
        self.noise = BackgroundNoise(self.node)
        self.raw_owner = self.node.register_owner(_Inert())
        self.raw: list[np.ndarray] = []
        self.files = 0

    def _bytes(self, low: int, high: int) -> int:
        page = self.cfg.pages.base_page_size
        return int(self.rng.integers(low, high)) * page

    def mmap_touch(self):  # base allocs, huge claims, compaction, reclaim
        vma = self.vmm.mmap(f"a{len(self.vmm.vmas)}", self._bytes(1, 80))
        self.vmm.touch(vma)

    def unmap(self):  # free_frames, free_huge_region
        if self.vmm.vmas:
            vma = self.vmm.vmas[int(self.rng.integers(len(self.vmm.vmas)))]
            self.vmm.unmap(vma)

    def demote(self):
        for vma in self.vmm.vmas:
            huge = np.flatnonzero(vma.huge_region >= 0)
            if huge.size:
                self.vmm.demote_chunk(vma, int(huge[0]))
                return

    def promote(self):  # khugepaged: claim a region, free the base frames
        self.vmm.khugepaged_pass(max_promotions=2)

    def swap_out(self):
        self.vmm.swap_out_pages(int(self.rng.integers(1, 24)))

    def raw_alloc(self):
        count = int(self.rng.integers(1, 40))
        self.raw.append(
            self.node.alloc_frames(count, self.raw_owner, state=FrameState.NONMOVABLE)
        )

    def raw_free(self):
        if self.raw:
            self.node.free_frames(self.raw.pop(int(self.rng.integers(len(self.raw)))))

    def pin(self):
        self.hog.occupy_bytes(self._bytes(1, 24))

    def unpin(self):
        self.hog.release()

    def fragment(self):
        self.frag.fragment(float(self.rng.uniform(0.05, 0.3)))

    def noise_scatter(self):  # up to every pristine region: compaction
        huge = self.cfg.pages.huge_page_size
        self.noise.scatter(
            nonmovable_bytes=huge * int(self.rng.integers(0, 3)),
            movable_bytes=huge * int(self.rng.integers(0, self.node.num_regions)),
            seed=int(self.rng.integers(1 << 16)),
        )

    def stage_file(self):  # reclaimable frames
        self.cache.read_file(f"f{self.files}", self._bytes(1, 40), node_id=0)
        self.files += 1

    def reclaim(self):
        self.node.reclaim_frames(int(self.rng.integers(1, 32)))

    def huge_claim(self):  # pristine claim, else compaction and reclaim
        owner = self.raw_owner
        region = self.node.alloc_huge_region(owner, state=FrameState.NONMOVABLE)
        if region is not None:
            span = self.node.region_frames(region)
            self.raw.append(np.arange(span.start, span.stop, dtype=np.int64))

    def release_all(self):
        self.noise.release()
        self.frag.release()


class _Inert:
    """A frame owner whose frames never move (non-movable raw claims)."""

    def relocate_frame(self, old_frame, new_frame):
        raise AssertionError("raw frames are never migrated")

    def reclaim_frame(self, frame):
        raise AssertionError("raw frames are never reclaimed")


OPS = (
    "mmap_touch", "unmap", "demote", "promote", "swap_out", "raw_alloc",
    "raw_free", "pin", "unpin", "fragment", "noise_scatter", "stage_file",
    "reclaim", "huge_claim", "release_all",
)


@pytest.mark.parametrize("seed", range(12))
def test_counters_track_random_allocator_sequences(seed):
    alloc = _Allocators(seed)
    _assert_counters_match(alloc.node)
    for _ in range(60):
        op = OPS[int(alloc.rng.integers(len(OPS)))]
        try:
            getattr(alloc, op)()
        except OutOfMemoryError:
            pass  # a full node is a legal outcome; the counters must still hold
        _assert_counters_match(alloc.node)



# ----------------------------------------------------------------------
# access_totals from raw ids == run-weighted totals
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_access_totals_from_raw_ids_equal_run_weighted(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3000))
    # Long runs of repeated keys and array ids, as sequential scans make.
    keys = np.repeat(rng.integers(0, 40, size=n), rng.integers(1, 6, size=n))
    aids = np.repeat(
        rng.integers(0, MAX_ARRAY_IDS, size=n).astype(np.uint8),
        rng.integers(1, 6, size=n),
    )[: keys.size]
    keys = keys[: aids.size] << 1
    trace = compress_trace(keys, aids)
    weighted = _access_totals(trace.array_ids, trace.counts)
    assert trace.access_totals().dtype == np.int64
    assert np.array_equal(trace.access_totals(), weighted)
    given = np.bincount(aids, minlength=MAX_ARRAY_IDS)
    assert np.array_equal(compress_trace(keys, aids, given).access_totals(), weighted)


def test_translated_trace_totals_equal_run_weighted():
    """SimProcess.translate's totals, on a laid-out process."""
    graph = uniform_graph(num_vertices=4096, num_edges=16384, seed=3)
    machine = Machine(tiny(), ThpPolicy.always())
    workload = create_workload("pagerank", graph)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    process = SimProcess(vmm, workload, MemoryLayout(workload), machine.config)
    process.allocate_and_touch(PlacementPlan.none())
    seen = 0
    for stream in workload.run():
        trace = process.translate(stream)
        assert np.array_equal(
            trace.access_totals(), _access_totals(trace.array_ids, trace.counts)
        )
        seen += 1
    assert seen
