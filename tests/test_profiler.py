"""Unit tests for the page-access profiler."""

import numpy as np
import pytest

from repro.config import tiny
from repro.mem.thp import ThpPolicy
from repro.mem.profiler import PageProfiler
from repro.mem.vmm import VirtualMemoryManager
from repro.tlb.trace import compress_trace


@pytest.fixture
def setup(node, tiny_cfg):
    vmm = VirtualMemoryManager(node, ThpPolicy.never(), tiny_cfg)
    vma = vmm.mmap("property_array", 2 * tiny_cfg.pages.huge_page_size)
    vmm.touch(vma)
    profiler = PageProfiler(tiny_cfg)
    profiler.track(vma)
    return vmm, vma, profiler


def trace_for(vma, pages, counts, tiny_cfg, huge=False):
    shift = (
        tiny_cfg.pages.huge_shift if huge else tiny_cfg.pages.base_shift
    )
    start = vma.start >> shift
    keys = ((np.asarray(pages, dtype=np.int64) + start) << 1) | int(huge)
    raw_keys = np.repeat(keys, counts)
    aids = np.full(raw_keys.size, 3, dtype=np.uint8)
    return compress_trace(raw_keys, aids)


class TestObserve:
    def test_base_page_counts(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        trace = trace_for(vma, [0, 1, 0], [2, 1, 3], tiny_cfg)
        profiler.observe(trace, {3: vma})
        counts = profiler.page_counts(vma)
        assert counts[0] == 5
        assert counts[1] == 1
        assert profiler.total_observed == 6

    def test_huge_accesses_attributed_to_chunk(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        vmm.policy = ThpPolicy.always()
        trace = trace_for(vma, [1], [4], tiny_cfg, huge=True)
        profiler.observe(trace, {3: vma})
        assert profiler.chunk_counts(vma)[1] == 4

    def test_untracked_arrays_ignored(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        other = vmm.mmap("edge_array", 4096)
        vmm.touch(other)
        trace = trace_for(other, [0], [7], tiny_cfg)
        profiler.observe(trace, {3: other})
        assert profiler.total_observed == 7  # counted in total...
        assert profiler.page_counts(vma).sum() == 0  # ...but not to vma


class TestQueries:
    def test_chunk_counts_sum_pages(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        fph = tiny_cfg.pages.frames_per_huge
        trace = trace_for(vma, [0, 1, fph], [1, 2, 4], tiny_cfg)
        profiler.observe(trace, {3: vma})
        chunks = profiler.chunk_counts(vma)
        assert chunks[0] == 3
        assert chunks[1] == 4

    def test_utilization(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        fph = tiny_cfg.pages.frames_per_huge
        # Touch half of chunk 0's pages.
        trace = trace_for(vma, list(range(fph // 2)), [1] * (fph // 2),
                          tiny_cfg)
        profiler.observe(trace, {3: vma})
        util = profiler.chunk_utilization(vma)
        assert util[0] == pytest.approx(0.5)
        assert util[1] == 0.0

    def test_reset(self, setup, tiny_cfg):
        vmm, vma, profiler = setup
        trace = trace_for(vma, [0], [5], tiny_cfg)
        profiler.observe(trace, {3: vma})
        profiler.reset()
        assert profiler.page_counts(vma).sum() == 0
        assert profiler.total_observed == 0
