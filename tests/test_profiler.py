"""Unit tests for the page-access profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny
from repro.machine.machine import Machine
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


# ----------------------------------------------------------------------
# bincount increments and their replay == the np.add.at fold
# ----------------------------------------------------------------------


def add_at_counts(config, vmas, trace):
    """The reference fold: per array id present, ``np.add.at`` of the
    run lengths onto base pages, huge runs onto their chunk's first
    page.  Returns the counts per VMA id."""
    fph = config.pages.frames_per_huge
    counts = {vma.vma_id: np.zeros(vma.npages, dtype=np.int64)
              for vma in vmas.values()}
    for array_id in np.unique(trace.array_ids):
        vma = vmas[int(array_id)]
        mask = trace.array_ids == array_id
        k = trace.keys[mask]
        c = trace.counts[mask]
        huge = (k & 1) == 1
        store = counts[vma.vma_id]
        base_pages = (k[~huge] >> 1) - (vma.start >> config.pages.base_shift)
        np.add.at(store, base_pages, c[~huge])
        chunk_pages = (
            (k[huge] >> 1) - (vma.start >> config.pages.huge_shift)
        ) * fph
        np.add.at(store, chunk_pages, c[huge])
    return counts


@pytest.fixture(scope="module")
def two_arrays():
    """Edge and property VMAs (two and a half huge chunks each)."""
    config = tiny()
    machine = Machine(config, ThpPolicy.never(), sanitize=False)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, config)
    vmas = {}
    for array_id, name in ((1, "edge_array"), (3, "property_array")):
        vma = vmm.mmap(name, 5 * config.pages.huge_page_size // 2)
        vmm.touch(vma)
        vmas[array_id] = vma
    return config, vmas


@settings(max_examples=60, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(
            st.sampled_from([1, 3]),
            st.integers(0, 1 << 20),
            st.booleans(),
            st.integers(1, 5),
        ),
        max_size=200,
    )
)
def test_observe_and_replay_match_the_add_at_fold(two_arrays, accesses):
    """``observe``'s increment, applied by ``observe`` itself and by
    ``replay`` into a second profiler, equals the ``np.add.at`` fold,
    base pages and huge-mapped chunks alike."""
    config, vmas = two_arrays
    pages = config.pages
    keys, aids = [], []
    for array_id, choice, huge, repeat in accesses:
        vma = vmas[array_id]
        page = choice % vma.npages
        if huge:
            hvpn = (vma.start >> pages.huge_shift) + page // pages.frames_per_huge
            key = (hvpn << 1) | 1
        else:
            key = ((vma.start >> pages.base_shift) + page) << 1
        keys += [key] * repeat
        aids += [array_id] * repeat
    trace = compress_trace(
        np.array(keys, dtype=np.int64), np.array(aids, dtype=np.uint8)
    )
    observed, replayed = PageProfiler(config), PageProfiler(config)
    for vma in vmas.values():
        observed.track(vma)
        replayed.track(vma)
    increment = observed.observe(trace, vmas)
    replayed.replay(increment, vmas)
    want = add_at_counts(config, vmas, trace)
    for vma in vmas.values():
        assert np.array_equal(observed.page_counts(vma), want[vma.vma_id])
        assert np.array_equal(replayed.page_counts(vma), want[vma.vma_id])
    assert observed.total_observed == replayed.total_observed == len(keys)
