"""Tests for MemSan, the simulated-memory sanitizer.

Each hook is exercised two ways: the legal path stays silent, and a
deliberately corrupted frame map (or a direct hook call with bad
arguments) raises :class:`MemSanError`.  Sweep tests corrupt real state
built through the public APIs rather than constructing fakes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    MemSanitizer,
    NullSanitizer,
    make_sanitizer,
    sanitizer_enabled,
    set_sanitize,
)
from repro.config import tiny
from repro.errors import MemSanError, ReproError
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.mem.physical import FrameState, NodeMemory, PhysicalMemory
from repro.mem.stats import KernelLedger
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.workloads.bfs import Bfs


@pytest.fixture
def san() -> MemSanitizer:
    return MemSanitizer()


@pytest.fixture
def san_node(tiny_cfg, san) -> NodeMemory:
    """A TINY node with the sanitizer attached and one registered owner."""
    ledger = KernelLedger(cost=tiny_cfg.cost)
    node = NodeMemory(0, tiny_cfg, ledger, sanitizer=san)
    node.register_owner(object())  # owner id 0
    return node


def frames_of(node: NodeMemory, count: int) -> np.ndarray:
    return node.alloc_frames(count, owner_id=0)


# ----------------------------------------------------------------------
# Enablement semantics
# ----------------------------------------------------------------------


class TestEnablement:
    def test_set_sanitize_returns_previous(self):
        previous = set_sanitize(False)
        try:
            assert set_sanitize(True) is False
            assert set_sanitize(None) is True
        finally:
            set_sanitize(previous)

    def test_explicit_false_beats_override(self):
        """The overhead benchmark's baseline must be guaranteed off."""
        assert make_sanitizer(False) is None

    def test_explicit_true_beats_override(self):
        previous = set_sanitize(False)
        try:
            assert isinstance(make_sanitizer(True), MemSanitizer)
            assert make_sanitizer() is None
        finally:
            set_sanitize(previous)

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsey_env_values(self, monkeypatch, value):
        previous = set_sanitize(None)
        try:
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitizer_enabled()
        finally:
            set_sanitize(previous)

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_env_values(self, monkeypatch, value):
        previous = set_sanitize(None)
        try:
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitizer_enabled()
        finally:
            set_sanitize(previous)

    def test_machine_sanitize_false_forces_off(self, tiny_cfg):
        machine = Machine(tiny_cfg, sanitize=False)
        assert machine.sanitizer is None
        assert machine.physical.sanitizer is None
        assert all(n.sanitizer is None for n in machine.physical.nodes)

    def test_machine_sanitize_true_wires_everything(self, tiny_cfg):
        machine = Machine(tiny_cfg, sanitize=True)
        assert isinstance(machine.sanitizer, MemSanitizer)
        assert all(
            n.sanitizer is machine.sanitizer for n in machine.physical.nodes
        )

    def test_node_default_is_off(self, tiny_cfg):
        """The zero-cost-when-off contract: plain nodes carry no hooks."""
        node = NodeMemory(0, tiny_cfg, KernelLedger(cost=tiny_cfg.cost))
        assert node.sanitizer is None

    def test_physical_memory_picks_up_ambient(self, tiny_cfg):
        previous = set_sanitize(True)
        try:
            assert isinstance(PhysicalMemory(tiny_cfg).sanitizer, MemSanitizer)
            set_sanitize(False)
            assert PhysicalMemory(tiny_cfg).sanitizer is None
        finally:
            set_sanitize(previous)

    def test_memsan_error_is_repro_error(self):
        assert issubclass(MemSanError, ReproError)


# ----------------------------------------------------------------------
# Allocator hooks
# ----------------------------------------------------------------------


class TestAllocatorHooks:
    def test_legal_lifecycle_is_silent(self, san_node, san):
        frames = frames_of(san_node, 8)
        san_node.free_frames(frames)
        assert san.checks > 0

    def test_double_alloc_detected(self, san_node, san):
        frames = frames_of(san_node, 4)
        with pytest.raises(MemSanError, match="double-alloc"):
            san.on_alloc_frames(san_node, frames, FrameState.MOVABLE)

    def test_alloc_must_not_install_free(self, san_node, san):
        with pytest.raises(MemSanError, match="FREE"):
            san.on_alloc_frames(
                san_node, np.array([0], dtype=np.int64), FrameState.FREE
            )

    def test_double_free_detected(self, san_node):
        frames = frames_of(san_node, 4)
        san_node.free_frames(frames)
        with pytest.raises(MemSanError, match="double-free"):
            san_node.free_frames(frames)

    def test_free_of_huge_frame_detected(self, san_node):
        region = san_node.alloc_huge_region(owner_id=0)
        span = san_node.region_frames(region)
        one = np.array([span.start], dtype=np.int64)
        with pytest.raises(MemSanError, match="huge page"):
            san_node.free_frames(one)

    def test_release_of_free_frame_detected(self, san_node, san):
        with pytest.raises(MemSanError, match="double-free"):
            san.on_release_frame(san_node, 3)

    def test_claim_requires_fully_free_region(self, san_node, san):
        frames_of(san_node, 1)  # dirties region 0 (broken-first policy)
        dirty = int(san_node.region_of(0))
        with pytest.raises(MemSanError, match="fully-free"):
            san.on_claim_region(san_node, dirty, FrameState.HUGE)

    def test_claim_rejects_out_of_range_region(self, san_node, san):
        with pytest.raises(MemSanError, match="outside"):
            san.on_claim_region(
                san_node, san_node.num_regions, FrameState.HUGE
            )

    def test_double_free_of_huge_region_detected(self, san_node):
        region = san_node.alloc_huge_region(owner_id=0)
        san_node.free_huge_region(region)
        with pytest.raises(MemSanError, match="double-free of huge region"):
            san_node.free_huge_region(region)

    def test_mixed_owner_region_free_detected(self, san_node):
        region = san_node.alloc_huge_region(owner_id=0)
        span = san_node.region_frames(region)
        san_node.owner_id[span.start] = 7  # corrupt one frame's owner
        with pytest.raises(MemSanError, match="mixed"):
            san_node.free_huge_region(region)

    def test_demote_without_huge_frames_detected(self, san_node):
        with pytest.raises(MemSanError, match="no HUGE frames"):
            san_node.demote_region(0)

    def test_migrating_huge_frame_detected(self, san_node, san):
        region = san_node.alloc_huge_region(owner_id=0)
        span = san_node.region_frames(region)
        free = np.flatnonzero(san_node.state == int(FrameState.FREE))[:1]
        with pytest.raises(MemSanError, match="non-MOVABLE"):
            san.on_migrate_frames(san_node, [span.start], free)

    def test_migrating_onto_occupied_target_detected(self, san_node, san):
        source = frames_of(san_node, 1)
        target = frames_of(san_node, 1)  # occupied, not a legal target
        with pytest.raises(MemSanError, match="non-free"):
            san.on_migrate_frames(san_node, source.tolist(), target)

    def test_pinning_free_frames_detected(self, san_node):
        free = np.flatnonzero(san_node.state == int(FrameState.FREE))[:2]
        with pytest.raises(MemSanError, match="pin"):
            san_node.pin_frames(free)

    def test_pinning_resident_frames_is_legal(self, san_node):
        frames = frames_of(san_node, 2)
        san_node.pin_frames(frames)
        assert (san_node.state[frames] == int(FrameState.PINNED)).all()


# ----------------------------------------------------------------------
# Node sweep
# ----------------------------------------------------------------------


class TestNodeSweep:
    def test_clean_node_passes(self, san_node, san):
        frames = frames_of(san_node, 16)
        san_node.free_frames(frames[:8])
        san.verify_node(san_node)

    def test_free_frame_with_owner_detected(self, san_node, san):
        san_node.owner_id[5] = 0  # owner without residency
        with pytest.raises(MemSanError, match="still carry an owner"):
            san.verify_node(san_node)

    def test_allocated_frame_without_owner_detected(self, san_node, san):
        san_node._set_state(5, FrameState.MOVABLE)  # residency, no owner
        with pytest.raises(MemSanError, match="no owner"):
            san.verify_node(san_node)

    def test_unregistered_owner_detected(self, san_node, san):
        frames = frames_of(san_node, 1)
        san_node.owner_id[frames] = 99
        with pytest.raises(MemSanError, match="unregistered"):
            san.verify_node(san_node)

    def test_reclaimable_pinned_frame_detected(self, san_node, san):
        frames = frames_of(san_node, 1)
        san_node.pin_frames(frames)
        san_node.reclaimable[frames] = True
        with pytest.raises(MemSanError, match="reclaimable"):
            san.verify_node(san_node)

    def test_partially_huge_region_detected(self, san_node, san):
        frames = frames_of(san_node, 1)
        san_node._set_state(frames, FrameState.HUGE)  # lone HUGE frame
        with pytest.raises(MemSanError, match="partially HUGE"):
            san.verify_node(san_node)

    def test_desynced_region_counter_detected(self, san_node, san):
        frames_of(san_node, 4)
        san_node._region_free[0] += 1  # a counter the frame map disagrees with
        with pytest.raises(MemSanError, match="free counters drifted"):
            san.verify_node(san_node)

    def test_desynced_free_total_detected(self, san_node, san):
        frames_of(san_node, 4)
        san_node._free_total -= 1
        with pytest.raises(MemSanError, match="free total"):
            san.verify_node(san_node)

    def test_frame_map_is_read_only(self, san_node):
        with pytest.raises(ValueError, match="read-only"):
            san_node.state[0] = int(FrameState.MOVABLE)


# ----------------------------------------------------------------------
# VMM cross-checks
# ----------------------------------------------------------------------


@pytest.fixture
def vmm(san_node, tiny_cfg) -> VirtualMemoryManager:
    return VirtualMemoryManager(san_node, ThpPolicy.always(), tiny_cfg)


class TestVmmSweep:
    def test_clean_vmm_passes(self, vmm, san):
        vma = vmm.mmap("a", 4 * vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        san.verify_vmm(vmm)

    def test_corrupted_page_table_detected(self, vmm, san):
        vma = vmm.mmap("a", 2 * vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        vma.frame[0] += 1  # page table no longer matches its region
        with pytest.raises(MemSanError):
            san.verify_vmm(vmm)

    def test_huge_flag_without_region_detected(self, vmm, san):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        vma.huge_region[0] = -1  # lose the region, keep the flags
        with pytest.raises(MemSanError):
            san.verify_vmm(vmm)

    def test_stale_frame_map_entry_detected(self, vmm, san):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        vmm._frame_map[10_000] = (vma, 0)
        with pytest.raises(MemSanError, match="stale"):
            san.verify_vmm(vmm)

    def test_unmap_empties_frame_map(self, vmm, san):
        """Regression: unmapping a huge-backed VMA must also drop the
        reverse-map entries installed for its constituent frames."""
        vma = vmm.mmap("a", 2 * vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        assert vma.is_huge.all()
        assert len(vmm._frame_map) == vma.npages
        vmm.unmap(vma)
        assert vmm._frame_map == {}
        san.verify_teardown(vmm)  # would flag any leak

    def test_teardown_with_live_mapping_detected(self, vmm, san):
        vmm.touch(vmm.mmap("a", vmm.config.pages.huge_page_size))
        with pytest.raises(MemSanError, match="live mappings"):
            san.verify_teardown(vmm)

    def test_teardown_leak_detected(self, vmm, san, san_node):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        vmm.touch(vma)
        vmm.unmap(vma)
        # Leak one frame back onto the released process.
        san_node.alloc_frames(1, owner_id=vmm.owner_id)
        with pytest.raises(MemSanError, match="leak"):
            san.verify_teardown(vmm)

    def test_khugepaged_pass_runs_sweep(self, san_node, tiny_cfg, san):
        """khugepaged ends with verify_vmm when the sanitizer is on."""
        vmm = VirtualMemoryManager(san_node, ThpPolicy.madvise(), tiny_cfg)
        vma = vmm.mmap("a", tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        before = san.checks
        vmm.khugepaged_pass()
        assert san.checks > before


# ----------------------------------------------------------------------
# THP-engine gates
# ----------------------------------------------------------------------


class TestThpGates:
    def test_promoting_huge_chunk_detected(self, vmm, san):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        vmm.touch(vma)  # ThpPolicy.always maps it huge at fault time
        with pytest.raises(MemSanError, match="already"):
            san.verify_promotion(vma, 0)

    def test_promoting_nonresident_chunk_detected(self, vmm, san):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        with pytest.raises(MemSanError, match="resident"):
            san.verify_promotion(vma, 0)

    def test_demoting_base_chunk_detected(self, vmm, san):
        vma = vmm.mmap("a", vmm.config.pages.huge_page_size)
        with pytest.raises(MemSanError, match="not"):
            san.verify_demotion(vma, 0)


# ----------------------------------------------------------------------
# Whole-machine integration
# ----------------------------------------------------------------------


class TestMachineIntegration:
    def test_full_run_under_memsan(self, tiny_cfg):
        graph = uniform_graph(num_vertices=512, num_edges=4096, seed=5)
        machine = Machine(tiny_cfg, ThpPolicy.always(), sanitize=True)
        metrics = machine.run(Bfs(graph), load_bytes=64 * 1024,
                              drop_cache_after_load=True)
        assert metrics.total_cycles > 0
        # The sanitizer actually ran: per-allocation hooks plus the
        # end-of-init and teardown sweeps.
        assert machine.sanitizer.checks > 10

    def test_sanitize_false_run_is_unchecked(self, tiny_cfg):
        graph = uniform_graph(num_vertices=512, num_edges=4096, seed=5)
        machine = Machine(tiny_cfg, ThpPolicy.always(), sanitize=False)
        metrics = machine.run(Bfs(graph))
        assert metrics.total_cycles > 0
        assert machine.sanitizer is None

    def test_runs_agree_with_and_without_memsan(self, tiny_cfg):
        """MemSan observes; it must never perturb the simulation."""
        graph = uniform_graph(num_vertices=512, num_edges=4096, seed=5)
        results = []
        for sanitize in (True, False):
            machine = Machine(tiny_cfg, ThpPolicy.always(), sanitize=sanitize)
            results.append(machine.run(Bfs(graph)).total_cycles)
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# NullSanitizer
# ----------------------------------------------------------------------


class TestNullSanitizer:
    def test_hooks_are_noops(self):
        null = NullSanitizer()
        assert null.on_free_frames(None, None) is None
        assert null.verify_node(None) is None
        assert null.checks == 0

    def test_non_hook_attributes_still_work(self):
        null = NullSanitizer()
        with pytest.raises(MemSanError):
            null._fail("boom")
