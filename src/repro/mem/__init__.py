"""Simulated memory-management substrate.

This subpackage models the parts of the Linux memory-management stack that
the paper's characterization exercises:

- :mod:`repro.mem.physical` — per-NUMA-node physical frame map with
  movable/non-movable/pinned mobility classes, huge-page-region accounting,
  compaction and reclaim.
- :mod:`repro.mem.vmm` — per-process virtual address spaces, VMAs, demand
  paging and ``madvise``.
- :mod:`repro.mem.thp` — a Linux-style transparent-huge-page policy engine
  (fault-time allocation, khugepaged promotion, demotion).
- :mod:`repro.mem.frag` / :mod:`repro.mem.memhog` — the paper's memory
  fragmentation and memory pressure tools.
- :mod:`repro.mem.page_cache` — single-use page-cache interference (§4.3).
- :mod:`repro.mem.swap` — the oversubscription cliff.
"""

from .physical import FrameState, NodeMemory, PhysicalMemory
from .stats import KernelLedger
from .thp import ThpMode, ThpPolicy
from .vmm import VirtualMemoryManager, Vma
from .frag import Fragmenter
from .heuristics import (
    HotnessManager,
    HugePageManager,
    UtilizationManager,
)
from .hugetlb import HugetlbPool
from .memhog import Memhog
from .noise import BackgroundNoise
from .page_cache import PageCache
from .profiler import PageProfiler
from .swap import SwapDevice

__all__ = [
    "BackgroundNoise",
    "FrameState",
    "Fragmenter",
    "HotnessManager",
    "HugePageManager",
    "HugetlbPool",
    "KernelLedger",
    "Memhog",
    "NodeMemory",
    "PageCache",
    "PageProfiler",
    "PhysicalMemory",
    "SwapDevice",
    "ThpMode",
    "ThpPolicy",
    "UtilizationManager",
    "Vma",
    "VirtualMemoryManager",
]
