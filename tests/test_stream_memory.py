"""Memory guard: translating a stream builds no stream-length column.

``SimProcess.translate`` reads a deferred stream block by block, so the
only stream-length allocations on the way to the trace are the trace's
own run arrays.  A PageRank edge sweep that nobody read before (8.6M
accesses) is translated under ``tracemalloc``; its peak must stay
within the trace's arrays at stream length plus a bound of a few
blocks.  Either stream-length column coming back would exceed it: the
``uint8`` ids by 8.6 MB, the ``int64`` indices by 69 MB.
"""

from __future__ import annotations

import tracemalloc

from repro.config import scaled
from repro.core.plan import PlacementPlan
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.workloads import base
from repro.workloads.layout import MemoryLayout
from repro.workloads.pagerank import PageRank

BLOCK_BOUND = 96 * base._BLOCK
"""Bytes allowed beyond the trace's own (12.6 MB): the sweep's degree
offsets and cut candidates (O(V), 2.5 MB here), the key map, and one
block's columns and temporaries.  The peak measured 8.8 MB above the
trace's own bytes."""


def test_unread_pagerank_sweep_peaks_at_its_trace():
    graph = uniform_graph(num_vertices=1 << 16, num_edges=1 << 22, seed=7)
    machine = Machine(scaled(), ThpPolicy.never())
    workload = PageRank(graph, max_iterations=1)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    process = SimProcess(vmm, workload, MemoryLayout(workload), machine.config)
    process.allocate_and_touch(PlacementPlan.none())
    stream = next(workload.run())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = process.translate(stream)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stream._array_ids is None  # translated unread
    per_access = (
        trace.keys.itemsize + trace.counts.itemsize + trace.array_ids.itemsize
    )
    assert per_access == 9  # int32 keys and counts, uint8 ids
    own = len(stream) * per_access
    assert peak <= own + BLOCK_BOUND, (peak, own)
