"""Byte-identity contract of the linear-time cell pipeline.

Three layers compute without a sort or a full scan what they once
computed with one; each property pins the new form to the old:

- ``Workload.edge_phase_stream`` writes every access to its slot
  directly; it must equal the stable argsort merge (:func:`merge_streams`,
  kept here as the oracle) over the fractional program positions, and so
  must its blocks, concatenated, at any block size;
- ``NodeMemory`` keeps free counters incrementally; after any sequence
  of allocator operations they must equal a recount of the frame map;
- ``SimProcess.translate`` takes a trace's per-array access totals from
  the raw array ids; they must equal the run-length-weighted totals;
- ``SimProcess.translate`` translates and run-length compresses a stream
  in one chunked pass over the stream's blocks; its trace must equal the
  per-array masked translation followed by :func:`compress_trace`
  (:func:`masked_translate`, kept here as the oracle), dtypes included.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.config import scaled, scaled_1m, tiny
from repro.core.plan import PlacementPlan
from repro.errors import OutOfMemoryError
from repro.graph.csr import CsrGraph
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.machine import process as process_module
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
from repro.policy.registry import get_policy
from repro.tlb.trace import (
    MAX_ARRAY_IDS,
    AccessStream,
    TlbTrace,
    _access_totals,
    compress_trace,
)
from repro.workloads import base as base_module
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


@pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank"])
def test_every_kernel_stream_equals_argsort(name, monkeypatch):
    """Each kernel's real frontier passes build the same stream both
    ways."""
    graph = uniform_graph(num_vertices=256, num_edges=1024, seed=9, weighted=True)
    checked = []
    scatter = Workload.edge_phase_stream

    def both(self, frontier, edge_positions, targets, **kwargs):
        got = scatter(self, frontier, edge_positions, targets, **kwargs)
        if edge_positions is None:  # PageRank's whole-array sweep
            edge_positions = np.arange(targets.size, dtype=np.int64)
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
# Block-built streams == argsort merge
# ----------------------------------------------------------------------

BLOCKS = [1, 3, 64, None]  # None: the module's own block target


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block={b or 'default'}")
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(base_module, "_BLOCK", request.param)
    return request.param or base_module._BLOCK


def _check_blocks(graph, frontier, edge_positions, targets, flags, target):
    """The stream's blocks, concatenated, equal the argsort merge; every
    block but the first opens with a vertex's first read, and no block
    but the last runs past ``target`` accesses by more than the longest
    burst of one offset's vertex reads and edges.  Returns the block
    lengths."""
    with_values, with_source_property, source_rank_reads = flags
    kwargs = dict(
        with_values=with_values,
        with_source_property=with_source_property,
        source_rank_reads=source_rank_reads,
    )
    stream = _Probe(graph).edge_phase_stream(
        frontier, edge_positions, targets, **kwargs
    )
    blocks = list(stream.blocks())
    joined = AccessStream(
        np.concatenate([b[0] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
    )
    want = argsort_edge_phase_stream(
        graph, frontier, edge_positions, targets, **kwargs
    )
    _assert_streams_equal(joined, want)
    # The longest burst: one group of vertices sharing an offset, with
    # the edges up to the next group's.
    kv = 2 + int(with_source_property) + int(source_rank_reads)
    per_edge = 3 if with_values else 2
    num_edges = int(targets.size)
    degrees = np.diff(graph.indptr)[frontier]
    offsets = np.cumsum(degrees) - degrees
    starts, count = np.unique(offsets, return_counts=True)
    edges = np.diff(np.append(starts, num_edges))
    burst = int((kv * count + per_edge * edges).max(initial=0))
    for i, (aids, idx) in enumerate(blocks):
        assert aids.dtype == np.uint8 and idx.dtype == np.int64
        if i:
            assert aids.size and aids[0] == ARRAY_VERTEX
        if i < len(blocks) - 1:
            assert aids.size <= target + burst
    if target == 1 and frontier.size:  # a cut before every group
        assert len(blocks) == starts.size
    return [b[0].size for b in blocks]


@pytest.mark.parametrize("flags", FLAGS)
def test_blocks_equal_argsort_with_zero_degree_runs(flags, block):
    """Runs of zero-degree vertices share one offset, so with small
    blocks every cut candidate borders one: no group may straddle a
    cut."""
    rng = np.random.default_rng(200 + sum(f << i for i, f in enumerate(flags)))
    for _ in range(10):
        graph = _graph_with_zero_degree_runs(rng)
        frontier = np.sort(
            rng.permutation(graph.num_vertices)[
                : int(rng.integers(1, graph.num_vertices + 1))
            ]
        )
        edge_positions, targets = _Probe(graph).gather_frontier_edges(frontier)
        _check_blocks(graph, frontier, edge_positions, targets, flags, block)


@pytest.mark.parametrize("flags", FLAGS)
def test_blocks_equal_argsort_with_a_hub_burst(flags, block):
    """A hub whose edges alone outnumber a block makes one oversized
    block; the blocks around it stay cut at vertex reads."""
    rng = np.random.default_rng(300 + sum(f << i for i, f in enumerate(flags)))
    num_vertices = 40
    src = np.concatenate([np.full(300, 7), rng.integers(0, num_vertices, 200)])
    dst = rng.integers(0, num_vertices, size=src.size)
    graph = CsrGraph.from_edges(src, dst, num_vertices)
    frontier = np.arange(num_vertices, dtype=np.int64)
    edge_positions, targets = _Probe(graph).gather_frontier_edges(frontier)
    sizes = _check_blocks(graph, frontier, edge_positions, targets, flags, block)
    if block == 64:
        assert max(sizes) > 600  # the hub's block


@pytest.mark.parametrize("flags", FLAGS)
def test_blocks_of_an_empty_frontier(flags, block):
    graph = uniform_graph(num_vertices=32, num_edges=128, seed=5)
    empty = np.empty(0, dtype=np.int64)
    assert sum(_check_blocks(graph, empty, empty, empty, flags, block)) == 0


def test_blocks_of_a_whole_array_sweep(block):
    """PageRank's sweep passes no edge positions: each block makes its
    own slice of the edge column from a range."""
    graph = uniform_graph(num_vertices=256, num_edges=1024, seed=9)
    frontier = np.arange(graph.num_vertices, dtype=np.int64)
    stream = _Probe(graph).edge_phase_stream(
        frontier, None, graph.indices, source_rank_reads=True
    )
    want = argsort_edge_phase_stream(
        graph,
        frontier,
        np.arange(graph.num_edges, dtype=np.int64),
        graph.indices,
        source_rank_reads=True,
    )
    _assert_streams_equal(stream, want)


@pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank"])
def test_unread_stream_translates_like_its_materialized_twin(name, block):
    """A stream translated straight from its blocks, its columns never
    read, gives the masked translation of the same stream made whole,
    dtypes included."""
    size = 4096 if block >= 64 else 256
    graph = uniform_graph(
        num_vertices=size, num_edges=4 * size, seed=5, weighted=True
    )
    machine = Machine(tiny(), ThpPolicy.always())
    workload = create_workload(name, graph)
    twins = create_workload(name, graph).run()
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    process = SimProcess(vmm, workload, MemoryLayout(workload), machine.config)
    process.allocate_and_touch(PlacementPlan.none())
    seen = 0
    for stream in workload.run():
        twin = next(twins)
        twin = AccessStream(twin.array_ids, twin.indices)
        trace = process._translate(stream)
        assert stream._array_ids is None  # translated unread
        _assert_traces_equal(trace, masked_translate(process, twin))
        seen += 1
    assert seen


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


# ----------------------------------------------------------------------
# Fused chunked translation == per-array masks + compress_trace
# ----------------------------------------------------------------------


def masked_translate(process: SimProcess, stream: AccessStream) -> TlbTrace:
    """The per-array masked translation: one boolean mask over the whole
    stream per array id, a fancy-indexed gather through each, then
    :func:`compress_trace` over the full-length key array."""
    pages = process.config.pages
    aids = stream.array_ids
    keys = np.empty(aids.size, dtype=np.int64)
    totals = np.bincount(aids, minlength=MAX_ARRAY_IDS)
    for array_id in np.flatnonzero(totals):
        array_id = int(array_id)
        mask = aids == array_id
        vma = process.vma_by_array[array_id]
        elem_bytes = process.layout.spec(array_id).element_bytes
        offsets = stream.indices[mask] * elem_bytes
        page = offsets >> pages.base_shift
        base_keys = ((vma.start >> pages.base_shift) + page) << 1
        huge_keys = (
            ((vma.start >> pages.huge_shift) + (offsets >> pages.huge_shift)) << 1
        ) | 1
        keys[mask] = np.where(vma.is_huge[page], huge_keys, base_keys)
    return compress_trace(keys, aids, totals)


def _assert_traces_equal(got: TlbTrace, want: TlbTrace) -> None:
    pairs = [
        (got.keys, want.keys),
        (got.counts, want.counts),
        (got.array_ids, want.array_ids),
        *zip(got.lookup_view(), want.lookup_view()),
        (got.access_totals(), want.access_totals()),
    ]
    for g, w in pairs:
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


CHUNKS = [1, 3, 64, None]  # None: the module's own chunk size


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk={c or 'default'}")
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(process_module, "_CHUNK", request.param)
    return request.param


def _checked_translate(monkeypatch, limit=None):
    """Make every ``SimProcess.translate`` call also run the oracle and
    require equal traces.  With ``limit``, only each stream's first
    ``limit`` accesses are compared (single-access chunks are slow) and
    the run continues on the oracle's trace.  Returns the list of
    compared lengths."""
    fused = SimProcess.translate
    checked = []

    def both(self, stream):
        head = stream
        if limit is not None:
            head = AccessStream(stream.array_ids[:limit], stream.indices[:limit])
        got = fused(self, head)
        _assert_traces_equal(got, masked_translate(self, head))
        checked.append(len(head))
        return got if head is stream else masked_translate(self, stream)

    monkeypatch.setattr(SimProcess, "translate", both)
    return checked


def _laid_out(config, thp):
    """A mapped and touched pagerank process."""
    graph = uniform_graph(num_vertices=16384, num_edges=65536, seed=5)
    machine = Machine(config, thp)
    workload = create_workload("pagerank", graph)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    process = SimProcess(vmm, workload, MemoryLayout(workload), machine.config)
    process.allocate_and_touch(PlacementPlan.none())
    return process, workload


def _half_huge(config):
    """A process whose every array is huge-mapped on alternate chunks."""
    process, workload = _laid_out(config, ThpPolicy.always())
    for vma in process.vma_by_array.values():
        fph = config.pages.frames_per_huge
        for chunk in range(vma.nchunks):
            if chunk % 2:
                vma.is_huge[chunk * fph : (chunk + 1) * fph] = False
    return process, workload


@pytest.mark.parametrize("seed", range(6))
def test_fused_equals_masked_on_random_streams(seed, chunk):
    """Random mixes of sequential scans (long runs that straddle chunk
    boundaries), repeated pages and scattered accesses, against a map
    with huge and base chunks interleaved."""
    rng = np.random.default_rng(seed)
    process, workload = _half_huge(tiny())
    ids = sorted(process.vma_by_array)
    sizes = {a: workload.array_elements(a) for a in ids}
    parts_a, parts_i = [], []
    for _ in range(int(rng.integers(1, 40))):
        array_id = ids[int(rng.integers(len(ids)))]
        n = int(rng.integers(1, 200))
        kind = int(rng.integers(3))
        if kind == 0:  # sequential scan
            start = int(rng.integers(sizes[array_id] - n))
            idx = np.arange(start, start + n)
        elif kind == 1:  # one element over and over
            idx = np.full(n, rng.integers(sizes[array_id]))
        else:  # pointer-indirect
            idx = rng.integers(0, sizes[array_id], size=n)
        parts_a.append(np.full(n, array_id, dtype=np.uint8))
        parts_i.append(idx.astype(np.int64))
    stream = AccessStream(np.concatenate(parts_a), np.concatenate(parts_i))
    _assert_traces_equal(
        process.translate(stream), masked_translate(process, stream)
    )


def test_fused_narrows_by_the_trace_keys_not_the_map(monkeypatch):
    """A key map reaching past ``2**31`` (an entry no access reads)
    makes translate work in ``int64``; the trace still narrows by its
    own largest key, as :func:`compress_trace` does."""
    key_map = SimProcess._key_map

    def wide(self):
        keys, first = key_map(self)
        return np.append(keys, 1 << 33), first

    monkeypatch.setattr(SimProcess, "_key_map", wide)
    process, _ = _half_huge(tiny())
    stream = AccessStream(
        np.full(5, ARRAY_PROPERTY, dtype=np.uint8),
        np.array([0, 0, 3, 9000, 9000], dtype=np.int64),
    )
    trace = process.translate(stream)
    assert trace.keys.dtype == np.int32
    _assert_traces_equal(trace, masked_translate(process, stream))


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 6, 7])
def test_fused_run_straddling_chunk_boundaries(length, monkeypatch):
    """A leading run ending on, just before and just after a chunk
    boundary, or spanning several whole chunks, then runs that start
    mid-chunk."""
    monkeypatch.setattr(process_module, "_CHUNK", 3)
    process, _ = _laid_out(tiny(), ThpPolicy.always())
    aids = [ARRAY_PROPERTY] * length + [ARRAY_EDGE] * 3 + [ARRAY_PROPERTY] * 2
    idx = [0] * length + [1, 1, 2] + [5, 5]
    stream = AccessStream(
        np.array(aids, dtype=np.uint8), np.array(idx, dtype=np.int64)
    )
    trace = process.translate(stream)
    _assert_traces_equal(trace, masked_translate(process, stream))
    if length:
        assert trace.counts[0] == length


@pytest.mark.parametrize("length", [0, 1])
def test_fused_empty_and_single_access_streams(length, chunk):
    process, _ = _laid_out(tiny(), ThpPolicy.always())
    stream = AccessStream(
        np.full(length, ARRAY_PROPERTY, dtype=np.uint8),
        np.full(length, 7, dtype=np.int64),
    )
    trace = process.translate(stream)
    _assert_traces_equal(trace, masked_translate(process, stream))
    assert len(trace) == length
    assert trace.access_totals().sum() == length


@pytest.mark.parametrize("name", ["bfs", "sssp", "pagerank"])
def test_fused_equals_masked_on_every_kernel(name, chunk, monkeypatch):
    """Every stream of every kernel (SSSP's values array included), run
    on a machine under THP, checked whole at chunk sizes 64 and the
    default and on a prefix at 1 and 3."""
    graph = uniform_graph(num_vertices=16384, num_edges=65536, seed=5, weighted=True)
    checked = _checked_translate(
        monkeypatch, limit=2000 if chunk in (1, 3) else None
    )
    Machine(tiny(), ThpPolicy.always()).run(create_workload(name, graph))
    assert checked


def _hugetlb_leading_chunks(machine):
    machine.reserve_hugetlb(3)  # fewer regions than the array has chunks
    return PlacementPlan(hugetlb_fractions={ARRAY_PROPERTY: 1.0})


def _fragmented(machine):
    machine.fragment(0.7)
    machine.finish_setup()
    return None


PARTIAL_MAPS = {  # name -> (THP policy, scenario setup returning the plan)
    "madvise-fractions": (
        ThpPolicy.madvise,
        lambda machine: PlacementPlan(
            advise_fractions={ARRAY_PROPERTY: 0.4, ARRAY_EDGE: 0.7}
        ),
    ),
    "hugetlb-leading-chunks": (ThpPolicy.never, _hugetlb_leading_chunks),
    "thp-fragmented": (ThpPolicy.always, _fragmented),
    "epoch-promotions": (
        lambda: get_policy("hawkeye").make_thp(),
        lambda machine: None,
    ),
}


@pytest.mark.parametrize("scenario", sorted(PARTIAL_MAPS))
@pytest.mark.parametrize(
    "config", [tiny, scaled, scaled_1m], ids=["tiny", "scaled", "scaled-1m"]
)
def test_fused_equals_masked_on_partially_huge_maps(scenario, config, monkeypatch):
    """Maps where only some chunks are huge, on each profile's page
    shift: madvise fractions, a hugetlb pool smaller than the array,
    THP under fragmentation and epoch promotions between streams."""
    make_thp, setup = PARTIAL_MAPS[scenario]
    graph = uniform_graph(num_vertices=16384, num_edges=65536, seed=5, weighted=True)
    machine = Machine(config(), make_thp())
    plan = setup(machine)
    checked = _checked_translate(monkeypatch)
    metrics = machine.run(create_workload("sssp", graph), plan=plan)
    assert checked
    assert 0 < metrics.huge_bytes < metrics.footprint_bytes
