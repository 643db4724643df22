"""Edge cases in the swap path (severe oversubscription)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.machine.process as process_module
from repro.config import tiny
from repro.core.plan import PlacementPlan
from repro.errors import ExperimentError, OutOfMemoryError
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.mem.memhog import Memhog
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import FRAME_SWAPPED, VirtualMemoryManager
from repro.tlb.trace import compress_trace
from repro.workloads.layout import MemoryLayout
from repro.workloads.registry import create_workload


class TestPartialEviction:
    def test_swap_out_returns_partial_when_fifo_dries(self, node, tiny_cfg):
        """Requesting more evictions than resident pages yields the
        possible amount, not an error (callers loop on progress)."""
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 4 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        assert vmm.swap_out_pages(64) == 4
        assert vma.swapped_pages == 4

    def test_swap_out_with_nothing_resident_raises(self, node, tiny_cfg):
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 2 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        vmm.swap_out_pages(2)
        with pytest.raises(OutOfMemoryError):
            vmm.swap_out_pages(1)

    def test_touch_under_extreme_deficit_completes(self, node, tiny_cfg):
        """Even with only a couple of free frames, the fault storm must
        terminate with everything either resident or swapped."""
        hog = Memhog(node)
        hog.leave_free_bytes(2 * tiny_cfg.pages.base_page_size)
        vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 32 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        assert vma.resident_pages + vma.swapped_pages == 32
        assert vma.resident_pages >= 1
        assert vmm.swap_device.pages_out >= 30


class TestHarnessGuards:
    def test_negative_free_target_rejected(self):
        from repro.config import tiny
        from repro.experiments.harness import ExperimentRunner
        from repro.experiments.policies import POLICIES
        from repro.experiments.scenarios import oversubscribed

        runner = ExperimentRunner(config=tiny(), datasets=("test-small",))
        # test-small's footprint is ~41KB; a 1.0 "GB" (64KB on TINY)
        # deficit would leave negative free memory.
        with pytest.raises(ExperimentError):
            runner.run_cell(
                "bfs", "test-small", POLICIES["base4k"], oversubscribed(1.0)
            )


class TestServiceSwapChunking:
    def test_result_is_independent_of_the_chunk_size(self, monkeypatch):
        """``service_swap`` walks the trace a chunk at a time; the FIFO
        residency state carries across chunks, so a tiny chunk gives
        the same cell as the default one."""
        import repro.machine.process as process_module
        from repro.config import tiny
        from repro.experiments.harness import ExperimentRunner
        from repro.experiments.policies import POLICIES
        from repro.experiments.scenarios import oversubscribed
        from repro.runstate.serialize import encode_result

        def run():
            runner = ExperimentRunner(config=tiny(), datasets=("test-small",))
            return runner.run_cell(
                "bfs", "test-small", POLICIES["base4k"], oversubscribed(0.5)
            )

        reference = run()
        assert reference.swap_ins > 0
        monkeypatch.setattr(process_module, "_CHUNK", 3)
        assert encode_result(run()) == encode_result(reference)


# ----------------------------------------------------------------------
# Vector-scan swap servicing == the per-run FIFO walk
# ----------------------------------------------------------------------


def service_swap_per_run(process, trace):
    """The per-run reference: a dict of per-array residency lists and a
    deque FIFO of resident base pages, walked one run at a time, with
    stale FIFO entries skipped on eviction.  Charges like
    ``service_swap`` and returns the swap-in count."""
    resident = {}
    start_vpn = process._start_table.tolist()
    fifo = deque()
    for array_id, vma in process.vma_by_array.items():
        flags = (vma.frame >= 0).tolist()
        resident[array_id] = flags
        for page, is_resident in enumerate(flags):
            if is_resident and not vma.is_huge[page]:
                fifo.append((array_id, page))
    swap_ins = 0
    for key, array_id in zip(trace.keys.tolist(), trace.array_ids.tolist()):
        if key & 1:
            continue  # huge-mapped pages were never swapped out
        page = (key >> 1) - start_vpn[array_id]
        flags = resident[array_id]
        if flags[page]:
            continue
        while True:
            victim_aid, victim_page = fifo.popleft()
            if resident[victim_aid][victim_page]:
                break
        resident[victim_aid][victim_page] = False
        flags[page] = True
        fifo.append((array_id, page))
        swap_ins += 1
    process._charge_swap(swap_ins)
    return swap_ins


@pytest.fixture(scope="module")
def swap_process():
    """A mapped pagerank process (four arrays) on TINY with a swap
    device; the property test rewrites its residency and size maps and
    puts them back."""
    config = tiny()
    graph = uniform_graph(num_vertices=4096, num_edges=16384, seed=3)
    machine = Machine(config, ThpPolicy.never(), sanitize=False)
    workload = create_workload("pagerank", graph)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, config)
    vmm.swap_device = SwapDevice()
    process = SimProcess(vmm, workload, MemoryLayout(workload), config)
    process.allocate_and_touch(PlacementPlan.none())
    return process


def _charges(process):
    ledger = process.vmm.node.ledger
    device = process.vmm.swap_device
    return (
        {k: ledger.counts.get(k, 0) for k in ("swap_in", "swap_out", "minor_fault")},
        ledger.total_cycles,
        device.pages_in,
        device.pages_out,
    )


def _delta(before, after):
    counts = {k: after[0][k] - before[0][k] for k in before[0]}
    return (counts, *(a - b for a, b in zip(after[1:], before[1:])))


@st.composite
def _swap_case(draw, process):
    """Random huge chunks and residency per array, and a trace of base
    and huge accesses that agrees with the size map."""
    pages = process.config.pages
    fph = pages.frames_per_huge
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    huge_share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    resident_share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    layout = {}
    for array_id, vma in process.vma_by_array.items():
        huge_chunks = rng.random(vma.nchunks) < huge_share
        is_huge = np.repeat(huge_chunks, fph)[: vma.npages]
        resident = rng.random(vma.npages) < resident_share
        layout[array_id] = (is_huge, resident)
    # At least one resident base page, or nothing can be evicted.
    base = [(a, p) for a, (h, _) in layout.items() for p in np.flatnonzero(~h)]
    if base:
        a, p = base[int(rng.integers(len(base)))]
        layout[a][1][p] = True
    ids = np.array(sorted(layout), dtype=np.uint8)
    aids = ids[rng.integers(0, ids.size, draw(st.integers(0, 400)))]
    keys = np.empty(aids.size, dtype=np.int64)
    for array_id in ids:
        vma = process.vma_by_array[int(array_id)]
        mask = aids == array_id
        page = rng.integers(0, vma.npages, int(mask.sum()))
        huge = layout[int(array_id)][0][page]
        hvpn = (vma.start >> pages.huge_shift) + page // fph
        bvpn = (vma.start >> pages.base_shift) + page
        keys[mask] = np.where(huge, (hvpn << 1) | 1, bvpn << 1)
    return layout, compress_trace(keys, aids)


@pytest.mark.parametrize("chunk, window", [(3, None), (None, 1), (None, None)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_service_swap_matches_the_per_run_walk(
    swap_process, chunk, window, data
):
    """Swap-in counts and the ledger and swap-device charges equal the
    per-run walk's over several arrays, mixed huge and base keys,
    random residency, a 3-run chunk and a 1-run first window."""
    process = swap_process
    layout, trace = data.draw(_swap_case(process))
    saved = {
        a: (vma.is_huge.copy(), vma.frame.copy())
        for a, vma in process.vma_by_array.items()
    }
    try:
        for array_id, (is_huge, resident) in layout.items():
            vma = process.vma_by_array[array_id]
            vma.is_huge[:] = is_huge
            vma.frame[~resident] = FRAME_SWAPPED
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(process_module, "_CHUNK", chunk)
            if window is not None:
                patch.setattr(process_module, "_SWAP_WINDOW", window)
            before = _charges(process)
            got = process.service_swap(trace)
            middle = _charges(process)
            want = service_swap_per_run(process, trace)
            after = _charges(process)
    finally:
        for array_id, (is_huge, frame) in saved.items():
            vma = process.vma_by_array[array_id]
            vma.is_huge[:] = is_huge
            vma.frame[:] = frame
    assert got == (want, want)
    assert _delta(before, middle) == _delta(middle, after)
