"""Edge cases in the swap path (severe oversubscription)."""

import pytest

from repro.errors import ExperimentError, OutOfMemoryError
from repro.mem.memhog import Memhog
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager


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
