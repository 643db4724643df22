"""Page-access profiling.

The paper's related work (Ingens, HawkEye) manages huge pages from
*observed access behaviour*: utilization bits and access frequencies
tracked by the kernel.  :class:`PageProfiler` provides that signal in
the simulator — per-base-page and per-huge-chunk access counts per VMA,
accumulated from the same compressed TLB traces the hierarchy consumes.
The machine profiles a run whose hook is an epoch policy (the heuristic
managers of :mod:`repro.mem.heuristics` and the online autotuner of
:mod:`repro.core.autotuner`), which read the counts as copies through
the :class:`~repro.policy.view.PolicyView`.

Counts are exact (every access is simulated), which makes the heuristic
baselines *stronger* than their real implementations: if exact-signal
Ingens/HawkEye still lose to the programmer-guided plan, sampling-based
ones only lose harder.

:meth:`PageProfiler.observe` returns the increment it applied, keyed by
array id.  The increment depends only on the trace and the layout, so a
stream whose outcome is replayed from another cell
(:mod:`repro.machine.replay`) stores it with the outcome, and the
replaying cell applies it with :meth:`PageProfiler.replay` instead of
translating the stream again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig
from ..tlb.trace import TlbTrace
from ..mem.vmm import Vma


@dataclass(frozen=True)
class ProfileIncrement:
    """What one trace added to a profiler: its access total and, per
    profiled array id, the count added to each base page of the array.

    Keyed by array id rather than VMA id, because VMA ids differ from
    cell to cell while the page offsets within an array do not.
    """

    accesses: int
    pages: dict[int, np.ndarray]


class PageProfiler:
    """Accumulates per-page access counts for a set of VMAs."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._counts: dict[int, np.ndarray] = {}
        self._start_vpn: dict[int, int] = {}
        self._start_hvpn: dict[int, int] = {}
        self._vmas: dict[int, Vma] = {}
        self.total_observed = 0

    def track(self, vma: Vma) -> None:
        """Register a mapping for profiling."""
        pages = self.config.pages
        self._counts[vma.vma_id] = np.zeros(vma.npages, dtype=np.int64)
        self._start_vpn[vma.vma_id] = vma.start >> pages.base_shift
        self._start_hvpn[vma.vma_id] = vma.start >> pages.huge_shift
        self._vmas[vma.vma_id] = vma

    def observe(
        self, trace: TlbTrace, vma_of_array: dict[int, Vma]
    ) -> ProfileIncrement:
        """Fold one compressed trace into the counters and return what
        it added, for :meth:`replay`.

        Huge-mapped accesses are attributed to the chunk's first base
        page (the profiler reports at chunk granularity for huge pages,
        matching what real hardware access bits can tell the kernel).
        """
        fph = self.config.pages.frames_per_huge
        keys = trace.keys
        counts = trace.counts
        aids = trace.array_ids
        pages: dict[int, np.ndarray] = {}
        for array_id in np.flatnonzero(np.bincount(aids)).tolist():
            vma = vma_of_array.get(array_id)
            if vma is None or vma.vma_id not in self._counts:
                continue
            mask = aids == array_id
            k = keys[mask]
            huge = (k & 1) == 1
            page = (k >> 1) - self._start_vpn[vma.vma_id]
            if huge.any():
                page[huge] = (
                    (k[huge] >> 1) - self._start_hvpn[vma.vma_id]
                ) * fph
            # Run lengths are integers, so the float64 sums are exact.
            pages[array_id] = np.bincount(
                page, weights=counts[mask], minlength=vma.npages
            ).astype(np.int64)
        increment = ProfileIncrement(int(counts.sum()), pages)
        self.replay(increment, vma_of_array)
        return increment

    def replay(
        self, increment: ProfileIncrement, vma_of_array: dict[int, Vma]
    ) -> None:
        """Apply an increment :meth:`observe` returned, here or in
        another profiler whose arrays have the same layout."""
        for array_id, added in increment.pages.items():
            self._counts[vma_of_array[array_id].vma_id] += added
        self.total_observed += increment.accesses

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def page_counts(self, vma: Vma) -> np.ndarray:
        """Access count per base page of ``vma``."""
        return self._counts[vma.vma_id]

    def chunk_counts(self, vma: Vma) -> np.ndarray:
        """Access count per huge chunk of ``vma``."""
        fph = self.config.pages.frames_per_huge
        counts = self._counts[vma.vma_id]
        padded = np.zeros(vma.nchunks * fph, dtype=np.int64)
        padded[: counts.size] = counts
        return padded.reshape(vma.nchunks, fph).sum(axis=1)

    def chunk_utilization(self, vma: Vma) -> np.ndarray:
        """Fraction of each chunk's base pages that were accessed at all
        — the Ingens-style utilization signal.  Chunks currently mapped
        huge report 1.0 when touched (per-subpage residency is invisible
        inside a THP, as on real hardware)."""
        fph = self.config.pages.frames_per_huge
        counts = self._counts[vma.vma_id]
        touched = np.zeros(vma.nchunks * fph, dtype=np.float64)
        touched[: counts.size] = counts > 0
        util = touched.reshape(vma.nchunks, fph).mean(axis=1)
        huge_touched = (self.chunk_counts(vma) > 0) & (
            vma.huge_region >= 0
        )
        util[huge_touched] = 1.0
        return util

    def reset(self) -> None:
        """Zero all counters (start of a new profiling window)."""
        for counts in self._counts.values():
            counts[:] = 0
        self.total_observed = 0
