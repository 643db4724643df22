"""Unit tests for the virtual memory manager and THP policy engine."""

import numpy as np
import pytest

from repro.errors import AddressError, AllocationError, OutOfMemoryError
from repro.mem.memhog import Memhog
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpMode, ThpPolicy
from repro.mem.vmm import FRAME_SWAPPED, FRAME_UNMAPPED, VirtualMemoryManager


def make_vmm(node, tiny_cfg, policy=None):
    return VirtualMemoryManager(node, policy or ThpPolicy.never(), tiny_cfg)


class TestMmap:
    def test_vma_alignment(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        huge = tiny_cfg.pages.huge_page_size
        a = vmm.mmap("a", 3 * huge)
        b = vmm.mmap("b", 100)
        assert a.start % huge == 0
        assert b.start % huge == 0
        assert b.start >= a.end

    def test_no_physical_before_touch(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("a", 10 * tiny_cfg.pages.base_page_size)
        assert (vma.frame == FRAME_UNMAPPED).all()
        assert node.free_frame_count == node.num_frames

    def test_rejects_bad_length(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        with pytest.raises(AllocationError):
            vmm.mmap("a", 0)

    def test_find_vma(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("prop", 4096)
        assert vmm.find_vma("prop") is vma
        with pytest.raises(AddressError):
            vmm.find_vma("missing")


class TestMadvise:
    def test_marks_overlapping_chunks(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 4 * huge)
        vmm.madvise_huge(vma, huge + 1, huge)  # spans chunks 1 and 2
        assert list(vma.advised) == [False, True, True, False]

    def test_full_range_default(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("a", 3 * tiny_cfg.pages.huge_page_size)
        vmm.madvise_huge(vma)
        assert vma.advised.all()

    def test_out_of_range(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("a", 4096)
        with pytest.raises(AddressError):
            vmm.madvise_huge(vma, 0, 10_000_000)


class TestTouchNever:
    def test_base_pages_only(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 2 * huge)
        vmm.touch(vma)
        assert (vma.frame >= 0).all()
        assert not vma.is_huge.any()
        assert node.ledger.counts["minor_fault"] == vma.npages

    def test_touch_idempotent(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("a", tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        used = node.free_frame_count
        vmm.touch(vma)
        assert node.free_frame_count == used


class TestTouchAlways:
    def test_full_chunks_get_huge_pages(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 2 * huge)
        vmm.touch(vma)
        assert vma.huge_chunk_count == 2
        assert vma.is_huge.all()
        assert node.ledger.counts["huge_fault"] == 2

    def test_partial_tail_chunk_stays_base(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        huge = tiny_cfg.pages.huge_page_size
        base = tiny_cfg.pages.base_page_size
        vma = vmm.mmap("a", huge + base)
        vmm.touch(vma)
        assert vma.huge_chunk_count == 1
        assert not vma.is_huge[-1]

    def test_falls_back_to_base_when_no_regions(self, node, tiny_cfg):
        hog = Memhog(node)
        # Leave exactly 2 huge regions' worth of memory, all fragmented.
        hog.leave_free_bytes(2 * tiny_cfg.pages.huge_page_size)
        from repro.mem.frag import Fragmenter

        Fragmenter(node).fragment(1.0)
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        vma = vmm.mmap("a", tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        assert vma.huge_chunk_count == 0
        assert vma.resident_pages == vma.npages


class TestTouchMadvise:
    def test_only_advised_chunks_are_huge(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.madvise())
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 4 * huge)
        vmm.madvise_huge(vma, 0, 2 * huge)
        vmm.touch(vma)
        assert list(vma.huge_region >= 0) == [True, True, False, False]


class TestUnmap:
    def test_unmap_frees_everything(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 3 * huge + 4096)
        vmm.touch(vma)
        vmm.unmap(vma)
        assert node.free_frame_count == node.num_frames
        assert vma not in vmm.vmas


class TestPromotionDemotion:
    def test_khugepaged_promotes_base_chunks(self, node, tiny_cfg):
        policy = ThpPolicy(mode=ThpMode.ALWAYS, fault_alloc=False)
        vmm = make_vmm(node, tiny_cfg, policy)
        huge = tiny_cfg.pages.huge_page_size
        vma = vmm.mmap("a", 2 * huge)
        vmm.touch(vma)
        assert vma.huge_chunk_count == 0
        promoted = vmm.khugepaged_pass()
        assert promoted == 2
        assert vma.huge_chunk_count == 2
        assert node.ledger.counts["promotions"] == 2
        # Promotion copies every constituent frame.
        assert (
            node.ledger.counts["promotion_frames"]
            == 2 * tiny_cfg.pages.frames_per_huge
        )

    def test_khugepaged_respects_mode(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        vma = vmm.mmap("a", 2 * tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        assert vmm.khugepaged_pass() == 0

    def test_demotion_splits(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        vma = vmm.mmap("a", 2 * tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        vmm.demote_chunk(vma, 0)
        assert vma.huge_chunk_count == 1
        assert not vma.is_huge[: tiny_cfg.pages.frames_per_huge].any()
        # Pages remain resident after the split.
        assert vma.resident_pages == vma.npages
        assert node.ledger.counts["demotions"] == 1


class TestSwap:
    def test_swap_out_and_in(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 8 * tiny_cfg.pages.base_page_size)
        vmm.touch(vma)
        assert vmm.swap_out_pages(3) == 3
        assert vma.swapped_pages == 3
        assert vmm.swap_device.pages_out == 3
        page = int(np.flatnonzero(vma.frame == FRAME_SWAPPED)[0])
        vmm.swap_in_page(vma, page)
        assert vma.frame[page] >= 0
        assert vmm.swap_device.pages_in == 1

    def test_swap_out_demotes_huge_victims(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.always())
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        assert vma.huge_chunk_count == 1
        vmm.swap_out_pages(1)
        assert vma.huge_chunk_count == 0  # split before swapping
        assert vma.swapped_pages == 1

    def test_touch_triggers_swap_under_oversubscription(
        self, node, tiny_cfg
    ):
        hog = Memhog(node)
        base = tiny_cfg.pages.base_page_size
        hog.leave_free_bytes(4 * base)
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        vmm.swap_device = SwapDevice()
        vma = vmm.mmap("a", 8 * base)
        vmm.touch(vma)
        assert vma.resident_pages + vma.swapped_pages == 8
        assert vmm.swap_device.pages_out >= 4

    def test_oom_without_swap(self, node, tiny_cfg):
        hog = Memhog(node)
        hog.leave_free_bytes(0)
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        vma = vmm.mmap("a", 4096)
        with pytest.raises(OutOfMemoryError):
            vmm.touch(vma)


class TestCompactionCallback:
    def test_relocate_updates_page_table(self, node, tiny_cfg):
        """Compaction migrating a VMM page must repoint vma.frame."""
        vmm = make_vmm(node, tiny_cfg, ThpPolicy.never())
        base = tiny_cfg.pages.base_page_size
        vma = vmm.mmap("a", 2 * base)
        vmm.touch(vma)
        old = int(vma.frame[0])
        vmm.relocate_frame(old, 999)
        assert int(vma.frame[0]) == 999
        assert vmm._frame_map[999] == (vma, 0)
