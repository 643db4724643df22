"""Read-only view of VMM / physical / ledger state for policy hooks.

Policy callbacks are sandboxed: they may *observe* the memory system but
never mutate it — all actions flow through the values they return
(:class:`~repro.policy.hooks.PageDecision`, candidate selections).  The
:class:`PolicyView` enforces that one-way contract structurally: it
exposes scalar snapshots and copies only, holds no setters, and rejects
attribute writes outright, so a buggy or adversarial policy cannot
perturb simulation state behind the decision points' back (the runtime
twin of lint rule REP013).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids cycles)
    from ..mem.vmm import VirtualMemoryManager


class PolicyView:
    """What a policy hook may see of the machine.

    Every accessor returns a scalar or a fresh copy; nothing hands out a
    live simulator object.
    """

    def __init__(self, vmm: "VirtualMemoryManager") -> None:
        object.__setattr__(self, "_vmm", vmm)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "PolicyView is read-only: policy hooks act through their "
            "return values, never by mutating simulator state"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("PolicyView is read-only")

    # -- physical memory ----------------------------------------------

    @property
    def free_frames(self) -> int:
        """Free base frames on the bound NUMA node."""
        return int(self._vmm.node.free_frame_count)

    @property
    def free_bytes(self) -> int:
        """Free bytes on the bound NUMA node."""
        return int(self._vmm.node.free_bytes)

    @property
    def pristine_regions(self) -> int:
        """Completely free huge-page-sized regions (allocatable without
        compaction)."""
        return int(self._vmm.node.pristine_region_count())

    @property
    def fragmentation_level(self) -> float:
        """The node's fragmentation metric (0 = contiguous free memory,
        1 = every free frame stranded in a broken region)."""
        return float(self._vmm.node.fragmentation_level())

    # -- address space -------------------------------------------------

    @property
    def mapped_bytes(self) -> int:
        """Sum of all live mapping lengths."""
        return int(self._vmm.total_mapped_bytes())

    @property
    def huge_bytes(self) -> int:
        """Bytes currently backed by huge pages across all mappings."""
        return int(self._vmm.total_huge_bytes())

    def vma_names(self) -> tuple[str, ...]:
        """Live mapping names, in creation order."""
        return tuple(vma.name for vma in self._vmm.iter_vmas())

    def huge_fraction(self, vma_name: str) -> float:
        """Fraction of one mapping's pages backed by huge pages.

        Raises:
            AddressError: if no VMA has that name.
        """
        return float(self._vmm.find_vma(vma_name).huge_backed_fraction)

    def resident_pages(self, vma_name: str) -> int:
        """Resident base pages of one mapping.

        Raises:
            AddressError: if no VMA has that name.
        """
        return int(self._vmm.find_vma(vma_name).resident_pages)

    # -- access profile (epoch policies) --------------------------------
    #
    # The machine profiles a run only when its hook is an epoch policy
    # (a :class:`~repro.mem.heuristics.HugePageManager`); elsewhere, and
    # before the first epoch, every count reads zero.

    @property
    def epoch(self) -> int:
        """Epoch steps so far, this one included (1 at the first
        ``on_iteration``)."""
        return int(self._vmm.epoch)

    @property
    def epoch_promotions(self) -> int:
        """Promotions landed by earlier epoch steps of this run."""
        return int(self._vmm.epoch_promotions)

    @property
    def frames_per_huge(self) -> int:
        """Base pages per huge page."""
        return int(self._vmm.config.pages.frames_per_huge)

    def page_counts(self, vma_name: str) -> np.ndarray:
        """Copy of one mapping's access count per base page (a huge
        page's accesses land on its first base page).

        Raises:
            AddressError: if no VMA has that name.
        """
        vma = self._vmm.find_vma(vma_name)
        profiler = self._vmm.profiler
        if profiler is None:
            return np.zeros(vma.npages, dtype=np.int64)
        return profiler.page_counts(vma).copy()

    def chunk_counts(self, vma_name: str) -> np.ndarray:
        """Copy of one mapping's access count per huge chunk.

        Raises:
            AddressError: if no VMA has that name.
        """
        vma = self._vmm.find_vma(vma_name)
        profiler = self._vmm.profiler
        if profiler is None:
            return np.zeros(vma.nchunks, dtype=np.int64)
        return profiler.chunk_counts(vma)

    def chunk_utilization(self, vma_name: str) -> np.ndarray:
        """Copy of the fraction of each chunk's base pages accessed at
        all (1.0 for a touched huge chunk) — the Ingens signal.

        Raises:
            AddressError: if no VMA has that name.
        """
        vma = self._vmm.find_vma(vma_name)
        profiler = self._vmm.profiler
        if profiler is None:
            return np.zeros(vma.nchunks, dtype=np.float64)
        return profiler.chunk_utilization(vma)

    # -- kernel ledger -------------------------------------------------

    def ledger_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of the kernel ledger's per-category counters."""
        return self._vmm.node.ledger.snapshot()
