"""Virtual memory manager: address spaces, VMAs, demand paging, madvise.

One :class:`VirtualMemoryManager` models the address space of one process
bound (``numactl --membind``) to one NUMA node.  Virtual memory areas
(:class:`Vma`) are created with :meth:`VirtualMemoryManager.mmap`, advised
with :meth:`~VirtualMemoryManager.madvise_huge`, and populated with
:meth:`~VirtualMemoryManager.touch` — which simulates the first-touch
fault storm of the application's initialization phase, consulting the THP
policy chunk by chunk exactly as the kernel's fault handler does.

Page-size state is tracked per base page so the TLB model can classify
every access.  Swapped-out pages are marked and transparently faulted back
in by the machine's access loop, which reproduces the paper's
oversubscription cliff (§4.3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from ..config import MachineConfig
from ..errors import AddressError, AllocationError, OutOfMemoryError
from ..faults.sites import FaultSite
from ..policy.hooks import FaultContext, PromotionCandidate
from ..policy.view import PolicyView
from .physical import NodeMemory
from .thp import ThpPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from .profiler import PageProfiler

FRAME_UNMAPPED = -1
"""Sentinel in ``Vma.frame``: page never touched."""

FRAME_SWAPPED = -2
"""Sentinel in ``Vma.frame``: page resident on the swap device."""


class Vma:
    """One virtual memory area (an anonymous mapping).

    Attributes:
        name: label used in reports ("property_array", ...).
        start: virtual start address; always huge-page aligned.
        length: requested length in bytes.
        npages: number of base pages covering the mapping.
        nchunks: number of huge-page-sized chunks covering the mapping
            (the last chunk may be partial and is never huge-eligible
            unless it is full).
        frame: per-base-page physical frame (or a ``FRAME_*`` sentinel).
            For huge-mapped pages this holds the page's frame *within* the
            huge region so compaction bookkeeping stays uniform.
        huge_region: per-chunk physical region index or -1.
        is_huge: per-base-page flag, kept consistent with ``huge_region``.
        advised: per-chunk ``MADV_HUGEPAGE`` flag.
    """

    def __init__(
        self,
        vma_id: int,
        name: str,
        start: int,
        length: int,
        base_page_size: int,
        frames_per_huge: int,
    ) -> None:
        self.vma_id = vma_id
        self.name = name
        self.start = start
        self.length = length
        self._base_page_size = base_page_size
        self._frames_per_huge = frames_per_huge
        self.npages = -(-length // base_page_size)
        self.nchunks = -(-self.npages // frames_per_huge)
        self.frame = np.full(self.npages, FRAME_UNMAPPED, dtype=np.int64)
        self.huge_region = np.full(self.nchunks, -1, dtype=np.int64)
        self.is_huge = np.zeros(self.npages, dtype=bool)
        self.advised = np.zeros(self.nchunks, dtype=bool)
        # chunk -> HugetlbPool for chunks backed by an explicit
        # reservation (those regions return to the pool on unmap and
        # are never demoted or swapped).
        self.pool_regions: dict[int, object] = {}

    # ------------------------------------------------------------------

    def chunk_pages(self, chunk: int) -> slice:
        """Base-page index range covered by huge chunk ``chunk``."""
        lo = chunk * self._frames_per_huge
        return slice(lo, min(lo + self._frames_per_huge, self.npages))

    def chunk_is_full(self, chunk: int) -> bool:
        """Whether the chunk spans a complete huge page worth of pages."""
        pages = self.chunk_pages(chunk)
        return pages.stop - pages.start == self._frames_per_huge

    @property
    def end(self) -> int:
        """One past the last mapped virtual address."""
        return self.start + self.length

    @property
    def resident_pages(self) -> int:
        """Base pages currently backed by physical memory."""
        return int(np.count_nonzero(self.frame >= 0) )

    @property
    def huge_chunk_count(self) -> int:
        """Number of chunks currently backed by huge pages."""
        return int(np.count_nonzero(self.huge_region >= 0))

    @property
    def huge_backed_bytes(self) -> int:
        """Bytes of the mapping backed by huge pages."""
        return (
            self.huge_chunk_count
            * self._frames_per_huge
            * self._base_page_size
        )

    @property
    def huge_backed_fraction(self) -> float:
        """Fraction of the mapping's pages that live in huge pages."""
        if self.npages == 0:
            return 0.0
        return float(np.count_nonzero(self.is_huge)) / self.npages

    @property
    def swapped_pages(self) -> int:
        """Base pages currently on the swap device."""
        return int(np.count_nonzero(self.frame == FRAME_SWAPPED))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vma({self.name!r}, start={self.start:#x}, "
            f"length={self.length}, huge_chunks={self.huge_chunk_count})"
        )


class VirtualMemoryManager:
    """Address space of one simulated process.

    The VMM registers itself as a frame owner with its NUMA node so that
    compaction can migrate its pages (updating the page tables here) —
    anonymous pages are movable but not reclaimable.
    """

    def __init__(
        self,
        node: NodeMemory,
        policy: ThpPolicy,
        config: MachineConfig,
    ) -> None:
        self.node = node
        self.policy = policy
        self.config = config
        self.sanitizer = node.sanitizer
        self.tracer = node.tracer
        # Read-only window the policy hooks observe the machine through
        # (docs/policies.md); shared by every decision point below.
        self.policy_view = PolicyView(self)
        self.owner_id = node.register_owner(self)
        self.vmas: list[Vma] = []
        self._next_vma_id = 0
        self._next_addr = config.pages.huge_page_size  # skip page 0
        # Reverse map frame -> (vma, page index) for compaction callbacks.
        self._frame_map: dict[int, tuple[Vma, int]] = {}
        # FIFO of (vma, page) in touch order: swap victim selection.
        self._touch_order: list[tuple[Vma, int]] = []
        self._swap_hand = 0
        self.swap_device = None  # attached by the machine when enabled
        # Access profile and epoch counters of an epoch policy's run
        # (the machine attaches the profiler; the view reads all three).
        self.profiler: Optional["PageProfiler"] = None
        self.epoch = 0
        self.epoch_promotions = 0

    # ------------------------------------------------------------------
    # Mapping lifecycle
    # ------------------------------------------------------------------

    def mmap(self, name: str, length: int) -> Vma:
        """Create an anonymous mapping of ``length`` bytes.

        The mapping is huge-page aligned (as glibc's allocator arranges
        for large allocations) so that every full chunk is THP-eligible.
        No physical memory is allocated until the pages are touched.
        """
        if length <= 0:
            raise AllocationError(f"mmap length must be positive, got {length}")
        pages = self.config.pages
        start = self._next_addr
        vma = Vma(
            self._next_vma_id,
            name,
            start,
            length,
            pages.base_page_size,
            pages.frames_per_huge,
        )
        self._next_vma_id += 1
        span = vma.nchunks * pages.huge_page_size
        # Leave one guard huge page between mappings.
        self._next_addr = start + span + pages.huge_page_size
        self.vmas.append(vma)
        return vma

    def madvise_huge(
        self, vma: Vma, offset: int = 0, length: Optional[int] = None
    ) -> None:
        """``madvise(addr+offset, length, MADV_HUGEPAGE)``.

        Marks every chunk that *overlaps* the byte range as advised, which
        matches the kernel's VMA-flag granularity after range splitting.
        """
        if length is None:
            length = vma.length - offset
        if offset < 0 or length < 0 or offset + length > vma.length:
            raise AddressError(
                f"madvise range [{offset}, {offset + length}) outside "
                f"{vma.name} of length {vma.length}"
            )
        if length == 0:
            return
        huge = self.config.pages.huge_page_size
        first = offset // huge
        last = (offset + length - 1) // huge
        vma.advised[first : last + 1] = True

    def unmap(self, vma: Vma) -> None:
        """Release the mapping and all physical memory backing it.

        hugetlbfs-backed chunks return to their reservation pool instead
        of the general free pool."""
        resident = vma.frame[vma.frame >= 0]
        for chunk in range(vma.nchunks):
            region = int(vma.huge_region[chunk])
            if region >= 0:
                pool = vma.pool_regions.pop(chunk, None)
                if pool is not None:
                    pool.give_back(region)
                else:
                    self.node.free_huge_region(region)
                vma.huge_region[chunk] = -1
        base_frames = vma.frame[(vma.frame >= 0) & ~vma.is_huge]
        if base_frames.size:
            self.node.free_frames(base_frames)
        # Huge-backed frames live in the reverse map too (installed by
        # _install_huge), so drop every resident frame — not just the
        # base-mapped ones — or stale entries outlive the mapping.
        for frame in resident:
            self._frame_map.pop(int(frame), None)
        vma.frame[:] = FRAME_UNMAPPED
        vma.is_huge[:] = False
        self.vmas.remove(vma)

    # ------------------------------------------------------------------
    # Demand paging (initialization fault storm)
    # ------------------------------------------------------------------

    def touch(self, vma: Vma) -> None:
        """First-touch the whole mapping in address order.

        Walks the mapping chunk by chunk, letting the THP policy try a
        huge allocation for each eligible chunk and falling back to base
        pages otherwise — the same decision the kernel makes per faulting
        address.  Charges fault costs to the kernel ledger.
        """
        for chunk in range(vma.nchunks):
            self._touch_chunk(vma, chunk)

    def _touch_chunk(self, vma: Vma, chunk: int) -> None:
        pages = vma.chunk_pages(chunk)
        already = vma.frame[pages] != FRAME_UNMAPPED
        if already.all():
            return
        policy = self.policy
        ledger = self.node.ledger
        decision = (policy.hooks or policy).on_fault(
            FaultContext(
                vma_name=vma.name,
                chunk=chunk,
                advised=bool(vma.advised[chunk]),
                chunk_full=vma.chunk_is_full(chunk),
                partially_mapped=bool(already.any()),
            ),
            self.policy_view,
        )
        if policy.hooks is not None:
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    "policy.fault",
                    policy=policy.hooks.name,
                    vma=vma.name,
                    chunk=chunk,
                    huge=int(decision.huge),
                )
        if decision.huge and vma.chunk_is_full(chunk) and not already.any():
            region = self.node.alloc_huge_region(
                self.owner_id,
                allow_compaction=decision.allow_compaction,
                allow_reclaim=decision.allow_reclaim,
            )
            if region is not None:
                self._install_huge(vma, chunk, region)
                ledger.huge_fault(self.config.pages.frames_per_huge)
                tracer = self.tracer
                if tracer is not None:
                    tracer.emit(
                        "thp.fault.grant",
                        vma=vma.name,
                        chunk=chunk,
                        frames=self.config.pages.frames_per_huge,
                    )
                return
            tracer = self.tracer
            if tracer is not None:
                # Eligible chunk the fault path could not back hugely:
                # the paper's fault-time allocation failure under
                # pressure/fragmentation.
                tracer.emit("thp.fault.deny", vma=vma.name, chunk=chunk)
        self._install_base(vma, pages)

    def _install_huge(self, vma: Vma, chunk: int, region: int) -> None:
        pages = vma.chunk_pages(chunk)
        frames = np.arange(
            self.node.region_frames(region).start,
            self.node.region_frames(region).stop,
            dtype=np.int64,
        )
        vma.huge_region[chunk] = region
        vma.frame[pages] = frames[: pages.stop - pages.start]
        vma.is_huge[pages] = True
        for offset, frame in enumerate(frames[: pages.stop - pages.start]):
            self._frame_map[int(frame)] = (vma, pages.start + offset)
            self._touch_order.append((vma, pages.start + offset))

    def _install_base(self, vma: Vma, pages: slice) -> None:
        """Fault in the chunk's untouched pages as base pages.

        Under memory pressure the fault storm proceeds in batches:
        when free memory runs out, already-touched pages (FIFO) are
        swapped out to make room — so the *earliest-allocated* data ends
        up on swap, as in a real first-touch loop.
        """
        untouched = np.flatnonzero(vma.frame[pages] == FRAME_UNMAPPED)
        if untouched.size == 0:
            return
        count = int(untouched.size)
        idx = pages.start + untouched
        ledger = self.node.ledger
        pos = 0
        while pos < count:
            free = self.node.free_frame_count
            batch = min(count - pos, free)
            if batch == 0:
                # Reclaim-before-swap, as the kernel's direct reclaim
                # does: single-use page-cache contents are dropped before
                # any anonymous page is written to disk.
                if self.node.injector is not None:
                    self.node.injector.check(FaultSite.RECLAIM)
                if self.node.reclaim_frames(min(64, count - pos)):
                    continue
                if self.swap_device is None:
                    raise OutOfMemoryError(
                        f"node {self.node.node_id}: out of memory touching "
                        f"{vma.name} and no swap device attached"
                    )
                self.swap_out_pages(min(64, count - pos))
                continue
            frames = self.node.alloc_frames(batch, self.owner_id)
            batch_idx = idx[pos : pos + batch]
            vma.frame[batch_idx] = frames
            vma.is_huge[batch_idx] = False
            for page, frame in zip(batch_idx, frames):
                self._frame_map[int(frame)] = (vma, int(page))
                self._touch_order.append((vma, int(page)))
            pos += batch
        ledger.minor_fault(count)
        ledger.base_prep(count)

    # ------------------------------------------------------------------
    # Swap
    # ------------------------------------------------------------------

    def swap_out_pages(self, count: int) -> int:
        """Swap out ``count`` of this process's resident pages (FIFO).

        Huge-mapped victims are demoted first (as the kernel splits THPs
        before swapping them); hugetlbfs-backed pages are skipped
        (unswappable).  Returns the number of pages actually swapped out
        — possibly fewer than requested when the eviction FIFO runs dry
        (callers loop on allocation progress).

        Raises:
            OutOfMemoryError: if not a single page could be evicted.
        """
        if self.swap_device is None:
            raise OutOfMemoryError("no swap device attached")
        done = 0
        ledger = self.node.ledger
        while done < count:
            if self._swap_hand >= len(self._touch_order):
                if done:
                    return done
                raise OutOfMemoryError(
                    "swap exhausted: no resident pages left to evict"
                )
            vma, page = self._touch_order[self._swap_hand]
            self._swap_hand += 1
            frame = int(vma.frame[page])
            if frame < 0:
                continue
            if vma.is_huge[page]:
                chunk = page // self.config.pages.frames_per_huge
                if chunk in vma.pool_regions:
                    continue  # hugetlbfs pages are unswappable
                self.demote_chunk(vma, chunk)
                frame = int(vma.frame[page])
            self.node.free_frames(np.array([frame], dtype=np.int64))
            self._frame_map.pop(frame, None)
            vma.frame[page] = FRAME_SWAPPED
            self.swap_device.page_out()
            ledger.swap_out()
            done += 1
        return done

    def swap_in_page(self, vma: Vma, page: int) -> None:
        """Fault a swapped page back in, evicting another if necessary."""
        if vma.frame[page] != FRAME_SWAPPED:
            return
        if self.node.free_frame_count == 0:
            self.swap_out_pages(1)
        frame = int(self.node.alloc_frames(1, self.owner_id)[0])
        vma.frame[page] = frame
        vma.is_huge[page] = False
        self._frame_map[frame] = (vma, page)
        self._touch_order.append((vma, page))
        self.swap_device.page_in()
        self.node.ledger.swap_in()
        self.node.ledger.minor_fault()

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------

    def promotion_candidates(self) -> tuple[PromotionCandidate, ...]:
        """Every collapse-eligible chunk — base-mapped, full size, fully
        resident — in the daemon's address-order walk (VMA creation
        order, then chunk index).

        Promotions cannot change a *different* chunk's eligibility
        (compaction only renumbers frames, residency is preserved), so
        acting on this up-front list in order promotes exactly what an
        interleaved walk would.
        """
        fph = self.config.pages.frames_per_huge
        candidates: list[PromotionCandidate] = []
        raw_base = 0
        for vma_index, vma in enumerate(self.vmas):
            full = vma.npages // fph
            resident = (vma.frame[: full * fph] >= 0).reshape(full, fph)
            eligible = resident.all(axis=1) & (vma.huge_region[:full] < 0)
            for chunk in np.flatnonzero(eligible).tolist():
                candidates.append(
                    PromotionCandidate(
                        vma_index=vma_index,
                        vma_name=vma.name,
                        chunk=chunk,
                        advised=bool(vma.advised[chunk]),
                        raw_index=raw_base + chunk,
                    )
                )
            raw_base += vma.nchunks
        return tuple(candidates)

    def _collapsible(self, candidate: PromotionCandidate) -> Optional[Vma]:
        """The candidate's VMA if the chunk is still collapse-eligible.

        A no-op for candidates fresh from :meth:`promotion_candidates`,
        a guard against hooks returning stale or fabricated picks.
        """
        vma = self.vmas[candidate.vma_index]
        chunk = candidate.chunk
        if vma.huge_region[chunk] >= 0 or not vma.chunk_is_full(chunk):
            return None
        if not (vma.frame[vma.chunk_pages(chunk)] >= 0).all():
            return None
        return vma

    def khugepaged_pass(self, max_promotions: Optional[int] = None) -> int:
        """Background promotion scan over all VMAs.

        Upgrades fully resident, base-mapped, THP-eligible chunks to huge
        pages by allocating a region and copying (the kernel's
        ``collapse_huge_page``).  A chunk that finds no region is
        skipped and the scan goes on.  Returns the number of promotions.
        """
        policy = self.policy
        if not policy.khugepaged_enabled:
            return 0
        # Gate: a stalled daemon fails the whole pass.
        injector = self.node.injector
        if injector is not None:
            injector.check(FaultSite.KHUGEPAGED)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("thp.khugepaged.scan")
        candidates = self.promotion_candidates()
        selected = tuple(
            (policy.hooks or policy).on_khugepaged_scan(
                candidates, self.policy_view
            )
        )
        if policy.hooks is not None and tracer is not None:
            tracer.emit(
                "policy.khugepaged",
                policy=policy.hooks.name,
                candidates=len(candidates),
                selected=len(selected),
            )
        promoted = 0
        last_raw = -1
        for candidate in selected:
            if max_promotions is not None and promoted >= max_promotions:
                break
            vma = self._collapsible(candidate)
            if vma is not None and self.promote_chunk(vma, candidate.chunk):
                promoted += 1
                last_raw = candidate.raw_index
        if (
            max_promotions is not None
            and promoted >= max_promotions
            and last_raw < sum(vma.nchunks for vma in self.vmas) - 1
        ):
            # Historical cap semantics: the interleaved walk returned
            # mid-scan once the cap was reached (skipping the trailing
            # verify/emit) unless the capping promotion landed on the
            # very last chunk of the walk.
            return promoted
        if self.sanitizer is not None:
            self.sanitizer.verify_vmm(self)
        if tracer is not None:
            tracer.emit("thp.khugepaged", promoted=promoted)
        return promoted

    def epoch_pass(self) -> int:
        """One between-iteration step of an epoch policy.

        Offers the collapse-eligible chunks to the hook's
        ``on_iteration`` and promotes its selection in order, stopping
        at the first chunk that finds no huge region (the rest of the
        selection waits for the next epoch).  Returns the number of
        promotions.
        """
        self.epoch += 1
        selected = self.policy.hooks.on_iteration(
            self.promotion_candidates(), self.policy_view
        )
        promoted = 0
        for candidate in selected:
            vma = self._collapsible(candidate)
            if vma is None:
                continue
            if not self.promote_chunk(vma, candidate.chunk):
                break
            promoted += 1
        self.epoch_promotions += promoted
        return promoted

    def promote_chunk(self, vma: Vma, chunk: int) -> bool:
        """Promote one base-mapped chunk to a huge page (copy collapse).

        Raises:
            MemSanError: when MemSan is attached and the chunk is not a
                legal collapse candidate.
            InjectedFaultError: when the ``promotion`` site fires.
        """
        if self.sanitizer is not None:
            self.sanitizer.verify_promotion(vma, chunk)
        injector = self.node.injector
        if injector is not None:
            injector.check(FaultSite.PROMOTION)
        region = self.node.alloc_huge_region(
            self.owner_id,
            allow_compaction=self.policy.khugepaged_compact,
            allow_reclaim=self.policy.khugepaged_compact,
        )
        if region is None:
            return False
        pages = vma.chunk_pages(chunk)
        old_frames = vma.frame[pages].copy()
        for frame in old_frames:
            self._frame_map.pop(int(frame), None)
        self.node.free_frames(old_frames)
        self._install_huge_frames_only(vma, chunk, region)
        self.node.ledger.promotion(self.config.pages.frames_per_huge)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "thp.promotion",
                vma=vma.name,
                chunk=chunk,
                frames=self.config.pages.frames_per_huge,
            )
        return True

    def _install_huge_frames_only(
        self, vma: Vma, chunk: int, region: int
    ) -> None:
        """Like :meth:`_install_huge` but without touch-order bookkeeping
        (the pages were already touched)."""
        pages = vma.chunk_pages(chunk)
        frames = np.arange(
            self.node.region_frames(region).start,
            self.node.region_frames(region).stop,
            dtype=np.int64,
        )[: pages.stop - pages.start]
        vma.huge_region[chunk] = region
        vma.frame[pages] = frames
        vma.is_huge[pages] = True
        for offset, frame in enumerate(frames):
            self._frame_map[int(frame)] = (vma, pages.start + offset)

    def back_chunk_from_pool(self, vma: Vma, chunk: int, pool) -> None:
        """Map one chunk from a hugetlbfs reservation (prefaulted).

        Raises:
            AllocationError: if the chunk is partial or already mapped.
            OutOfMemoryError: if the pool is exhausted.
        """
        if not vma.chunk_is_full(chunk):
            raise AllocationError(
                f"{vma.name} chunk {chunk} is partial; hugetlbfs mappings "
                "are whole huge pages"
            )
        pages = vma.chunk_pages(chunk)
        if (vma.frame[pages] != FRAME_UNMAPPED).any():
            raise AllocationError(
                f"{vma.name} chunk {chunk} is already (partially) mapped"
            )
        region = pool.take()
        self._install_huge(vma, chunk, region)
        vma.pool_regions[chunk] = pool
        # hugetlbfs prefaults the whole page at mmap time: one fault,
        # full-page preparation.
        self.node.ledger.huge_fault(self.config.pages.frames_per_huge)

    def demote_chunk(self, vma: Vma, chunk: int) -> None:
        """Split a huge-mapped chunk back into base pages.

        The constituent frames stay in place (the region's frames become
        512 independently-freeable base frames, as in the kernel's
        ``split_huge_page``), so no copying is charged — only the page
        table rewrite and TLB shootdown.
        """
        region = int(vma.huge_region[chunk])
        if region < 0:
            return
        if chunk in vma.pool_regions:
            raise AllocationError(
                f"{vma.name} chunk {chunk} is hugetlbfs-backed; "
                "explicit reservations cannot be split"
            )
        if self.sanitizer is not None:
            self.sanitizer.verify_demotion(vma, chunk)
        injector = self.node.injector
        if injector is not None:
            injector.check(FaultSite.DEMOTION)
        pages = vma.chunk_pages(chunk)
        vma.huge_region[chunk] = -1
        vma.is_huge[pages] = False
        self.node.demote_region(region)
        self.node.ledger.demotion()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("thp.demotion", vma=vma.name, chunk=chunk)

    # ------------------------------------------------------------------
    # FrameOwner protocol
    # ------------------------------------------------------------------

    def relocate_frame(self, old_frame: int, new_frame: int) -> None:
        """Compaction migrated one of our base pages."""
        vma, page = self._frame_map.pop(old_frame)
        vma.frame[page] = new_frame
        self._frame_map[new_frame] = (vma, page)

    def reclaim_frame(self, frame: int) -> None:  # pragma: no cover
        raise AssertionError(
            "anonymous process pages are not reclaimable; "
            "reclaim should only target the page cache"
        )

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------

    def find_vma(self, name: str) -> Vma:
        """Look up a mapping by name.

        Raises:
            AddressError: if no VMA has that name.
        """
        for vma in self.vmas:
            if vma.name == name:
                return vma
        raise AddressError(f"no VMA named {name!r}")

    def iter_vmas(self) -> Iterable[Vma]:
        """All live mappings in creation order."""
        return iter(self.vmas)
