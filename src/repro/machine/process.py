"""Simulated process: array mapping and address translation.

:class:`SimProcess` owns the binding between a workload's logical arrays
and the VMAs backing them, translates logical access streams into
page-granular TLB traces, and services swap faults during the compute
phase when memory is oversubscribed.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..config import MachineConfig
from ..core.plan import PlacementPlan
from ..mem.thp import ThpMode
from ..mem.vmm import VirtualMemoryManager, Vma
from ..tlb.trace import MAX_ARRAY_IDS, AccessStream, TlbTrace, trace_dtypes
from ..workloads.base import ARRAY_NAMES, Workload
from ..workloads.layout import MemoryLayout

_CHUNK = 1 << 17
"""Accesses :meth:`SimProcess.translate` handles per pass: its
temporaries stay a few MB however long the stream is."""

_SWAP_WINDOW = 64
"""Runs :meth:`SimProcess.service_swap` scans at first when it looks for
the next swap-in; the window doubles from there."""

_ID_SPACE = 256
"""Table length: every ``uint8`` array id indexes the per-array tables."""


class SimProcess:
    """One workload's address-space state on a machine."""

    def __init__(
        self,
        vmm: VirtualMemoryManager,
        workload: Workload,
        layout: MemoryLayout,
        config: MachineConfig,
    ) -> None:
        self.vmm = vmm
        self.workload = workload
        self.layout = layout
        self.config = config
        self.vma_by_array: dict[int, Vma] = {}
        # Per-array tables, indexed by array id: element size, first
        # VPN and element count (zero for an unmapped id).
        self._elem_table = np.zeros(_ID_SPACE, dtype=np.int64)
        self._start_table = np.zeros(_ID_SPACE, dtype=np.int64)
        self._count_table = np.zeros(_ID_SPACE, dtype=np.uint64)
        # Identity -> (translation layout, read-only trace) of the last
        # stream translated under that identity.
        self._held: dict[Hashable, tuple[tuple, TlbTrace]] = {}

    # ------------------------------------------------------------------
    # Initialization phase
    # ------------------------------------------------------------------

    def allocate_and_touch(
        self, plan: PlacementPlan, hugetlb_pool=None
    ) -> None:
        """Map and first-touch every array in the layout's order.

        ``madvise`` advice from the plan is applied *before* touching (as
        a programmer would), so fault-time THP allocation sees it.  Advice
        only matters when the THP mode is ``madvise``; under ``always``
        every eligible chunk is huge-candidate regardless.

        Arrays with a ``hugetlb_fractions`` entry have their leading
        chunks mapped from the boot-time reservation pool first (the
        explicit hugetlbfs mmap), with the remainder demand-faulted as
        usual.
        """
        pages = self.config.pages
        for spec in self.layout.allocation_sequence():
            if spec.length_bytes == 0:
                # An edgeless graph's edge arrays: nothing to map, and
                # no access can name them.
                continue
            vma = self.vmm.mmap(spec.name, spec.length_bytes)
            # translate() reads a VPN's huge page as vpn >> (huge_shift -
            # base_shift), which needs huge-aligned mappings.
            assert vma.start % pages.huge_page_size == 0, vma
            assert spec.array_id < MAX_ARRAY_IDS, spec
            pool_fraction = plan.hugetlb_fractions.get(spec.array_id)
            if pool_fraction is not None and hugetlb_pool is not None:
                self._back_from_pool(vma, pool_fraction, hugetlb_pool)
            fraction = plan.advise_fractions.get(spec.array_id)
            if fraction is not None and self.vmm.policy.mode is ThpMode.MADVISE:
                advise_len = max(1, int(spec.length_bytes * fraction))
                self.vmm.madvise_huge(vma, 0, advise_len)
            self.vmm.touch(vma)
            self.vma_by_array[spec.array_id] = vma
            self._elem_table[spec.array_id] = spec.element_bytes
            self._start_table[spec.array_id] = vma.start >> pages.base_shift
            self._count_table[spec.array_id] = spec.num_elements

    def _back_from_pool(self, vma, fraction: float, pool) -> None:
        """Map the leading ``fraction`` of a VMA from the reservation."""
        huge = self.config.pages.huge_page_size
        want_bytes = max(1, int(vma.length * fraction))
        want_chunks = -(-want_bytes // huge)
        for chunk in range(min(want_chunks, vma.nchunks)):
            if not vma.chunk_is_full(chunk) or pool.available == 0:
                break
            self.vmm.back_chunk_from_pool(vma, chunk, pool)

    def release(self) -> None:
        """Unmap every array (end of run), freeing physical memory."""
        for vma in list(self.vma_by_array.values()):
            self.vmm.unmap(vma)
        self.vma_by_array.clear()
        self._held.clear()

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------

    def translate(self, stream: AccessStream) -> TlbTrace:
        """Turn a logical access stream into a compressed TLB trace.

        Page keys follow :mod:`repro.tlb.trace`: base-page accesses get
        ``(vpn << 1)``, accesses landing in huge-mapped pages get
        ``(huge_vpn << 1) | 1``.  The per-page size map is the VMM's
        ground truth, so promotions/demotions between streams are
        reflected automatically.

        A stream with an :attr:`~repro.tlb.trace.AccessStream.identity`
        gets the trace last translated under that identity, without its
        columns being read, as long as :meth:`translation_layout`
        (without residency) is unchanged: equal layouts translate equal
        streams identically.  A promotion, demotion or epoch pass
        between the two changes the layout, so the stream is translated
        afresh and replaces the held trace.  Held traces are read-only.
        Streams without an identity are always translated.

        Raises:
            KeyError: if the stream names an array the process has not
                mapped.
            IndexError: if an element index lies outside its array
                (negative indices included).
            ValueError: if a stream is not as long as the one last
                translated under its identity.
        """
        identity = stream.identity
        if identity is None:
            return self._translate(stream)
        layout = self.translation_layout(False)
        held = self._held.get(identity)
        if held is not None and held[0] == layout:
            return self._reuse(stream, held[1])
        self._held.pop(identity, None)  # free the stale trace first
        trace = self._translate(stream)
        for array in (trace.keys, trace.counts, trace.array_ids):
            array.setflags(write=False)
        trace.access_totals().setflags(write=False)
        self._held[identity] = (layout, trace)
        return trace

    def _reuse(self, stream: AccessStream, trace: TlbTrace) -> TlbTrace:
        """``trace``, held for ``stream``'s identity, once the stream is
        checked to be as long as the one it was translated from."""
        held_accesses = int(trace.access_totals().sum())
        if len(stream) != held_accesses:
            raise ValueError(
                f"stream {stream.identity!r} has {len(stream)} accesses, "
                f"but the stream translated under that identity had "
                f"{held_accesses}"
            )
        return trace

    def _translate(self, stream: AccessStream) -> TlbTrace:
        """Translate ``stream``'s blocks, checking every access.

        One pass over the stream's blocks, each cut into chunks of at
        most :data:`_CHUNK` accesses, gathers each access's element size
        and start VPN from per-array tables, reads its key from one map
        over the whole mapped range, and run-length compresses the keys
        on the spot.  The run in progress carries across chunk and block
        boundaries, and runs go straight into arrays sized for the worst
        case (one run per access) that are shrunk in place at the end,
        so the only stream-length allocations are the trace's own, in
        :func:`~repro.tlb.trace.trace_dtypes`.  Mappings are disjoint and
        huge-aligned, so a key names its array: runs split exactly where
        keys change, which is also where
        :func:`~repro.tlb.trace.compress_trace` would split them on array
        ids, and no two adjacent runs share a key.
        """
        base_shift = self.config.pages.base_shift
        key_map, map_base = self._key_map()
        elem_table = self._elem_table
        start_table = self._start_table - map_base
        count_table = self._count_table
        n = len(stream)
        # The map's largest key bounds the trace's.
        key_dtype, count_dtype = trace_dtypes(int(key_map.max(initial=0)), n)
        key_map = key_map.astype(key_dtype)
        run_keys = np.empty(n, dtype=key_dtype)
        run_counts = np.empty(n, dtype=count_dtype)
        run_aids = np.empty(n, dtype=np.uint8)
        totals = np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
        runs = 0
        last_key = -1  # keys are non-negative: the first access starts a run
        for block_aids, block_indices in stream.blocks():
            for lo in range(0, block_aids.size, _CHUNK):
                a = block_aids[lo : lo + _CHUNK]
                idx = block_indices[lo : lo + _CHUNK].astype(
                    np.int64, copy=False
                )
                size = a.size
                # One unsigned compare catches negative indices, indices
                # past the end and ids of unmapped (zero-length) arrays.
                if np.any(idx.view(np.uint64) >= count_table[a]):
                    self._reject(a, idx)
                totals += np.bincount(a, minlength=MAX_ARRAY_IDS)
                page = idx * elem_table[a]
                page >>= base_shift
                page += start_table[a]  # now the VPN's offset into key_map
                keys = key_map[page]
                change = np.empty(size, dtype=bool)
                change[0] = int(keys[0]) != last_key
                np.not_equal(keys[1:], keys[:-1], out=change[1:])
                starts = np.flatnonzero(change)
                lead = int(starts[0]) if starts.size else size
                if lead:  # the chunk opens inside the carried run
                    run_counts[runs - 1] += lead
                if starts.size:
                    new = runs + starts.size
                    run_keys[runs:new] = keys[starts]
                    run_aids[runs:new] = a[starts]
                    np.subtract(
                        starts[1:], starts[:-1], out=run_counts[runs : new - 1]
                    )
                    run_counts[new - 1] = size - int(starts[-1])
                    runs = new
                last_key = int(keys[-1])
        for run_array in (run_keys, run_counts, run_aids):
            run_array.resize(runs, refcheck=False)
        if key_dtype is not np.int32:
            # A mapped range past 2**31 keys: narrow by the trace's own.
            run_keys = run_keys.astype(
                trace_dtypes(int(run_keys.max(initial=0)), n)[0]
            )
        # Every run leads its own lookup group, so the runs are the
        # lookup view.
        return TlbTrace(
            run_keys,
            run_counts,
            run_aids,
            run_keys,
            run_aids,
            totals,
        )

    def _key_map(self) -> tuple[np.ndarray, int]:
        """The page key of every mapped VPN, as ``(map, first_vpn)``:
        entry ``vpn - first_vpn`` is the key of an access to page
        ``vpn``, from the VMAs' current page-size maps.  A VPN's huge
        page is ``vpn >> (huge_shift - base_shift)`` because mappings
        are huge-aligned.  The gaps between mappings hold base keys; no
        valid access reaches them."""
        pages = self.config.pages
        vmas = self.vma_by_array.values()
        if not vmas:
            return np.zeros(0, dtype=np.int64), 0
        first = min(vma.start for vma in vmas) >> pages.base_shift
        stop = max((vma.start >> pages.base_shift) + vma.npages for vma in vmas)
        huge = np.zeros(stop - first, dtype=np.int64)
        for vma in vmas:
            lo = (vma.start >> pages.base_shift) - first
            huge[lo : lo + vma.npages] = vma.is_huge
        vpn = np.arange(first, stop, dtype=np.int64)
        vpn >>= huge * (pages.huge_shift - pages.base_shift)
        vpn <<= 1
        vpn |= huge
        return vpn, first

    def _reject(self, array_ids: np.ndarray, indices: np.ndarray) -> None:
        """Raise the error for a chunk that failed translate's range check."""
        for array_id in np.flatnonzero(np.bincount(array_ids)).tolist():
            if array_id not in self.vma_by_array:
                raise KeyError(
                    f"access stream names array id {array_id}, which the "
                    f"process has not mapped"
                )
        bad = np.flatnonzero(
            indices.view(np.uint64) >= self._count_table[array_ids]
        )[0]
        array_id = int(array_ids[bad])
        raise IndexError(
            f"element index {int(indices[bad])} outside "
            f"{ARRAY_NAMES.get(array_id, array_id)} (id {array_id}) of "
            f"{int(self._count_table[array_id])} elements"
        )

    def translation_layout(self, with_residency: bool) -> tuple:
        """Everything :meth:`translate` reads besides the stream, and
        with ``with_residency`` everything :meth:`service_swap` reads
        too, per array in mapping order: start VPN, element size and
        count, the per-page size map and, when asked, the per-page
        residency.  Equal layouts translate (and swap) an equal stream
        identically."""
        parts: list = [with_residency]
        for array_id, vma in self.vma_by_array.items():
            parts.append(
                (
                    array_id,
                    int(self._start_table[array_id]),
                    int(self._elem_table[array_id]),
                    int(self._count_table[array_id]),
                    vma.is_huge.tobytes(),
                    (vma.frame >= 0).tobytes() if with_residency else b"",
                )
            )
        return tuple(parts)

    # ------------------------------------------------------------------
    # Swap servicing (oversubscribed memory)
    # ------------------------------------------------------------------

    def has_swapped_pages(self) -> bool:
        """Whether any mapped page currently lives on the swap device."""
        return any(
            vma.swapped_pages > 0 for vma in self.vma_by_array.values()
        )

    def service_swap(self, trace: TlbTrace) -> tuple[int, int]:
        """Simulate demand paging over a trace under oversubscription.

        Maintains a FIFO residency set sized by the pages that are
        resident at trace start; every access to a non-resident base page
        swaps it in and evicts the FIFO head (a frame-for-frame exchange —
        the steady state of a thrashing system).  Charges swap I/O and
        fault costs to the kernel ledger and returns ``(swap_ins,
        swap_outs)``.

        Residency is tracked per call; the VMM's page tables are not
        rewritten (the run's translation behaviour is unaffected: vpns do
        not change when a page moves between RAM and swap).

        Residency is one mask over the mapped VPN range plus one
        always-resident sentinel slot, where huge keys land (huge-mapped
        pages are never swapped out).  The FIFO is a fixed-capacity
        ring: the exchange is frame for frame, so its size never
        changes, and the evicted page is always the head, so every entry
        is resident.  Misses are rare next to hits, so the runs are
        scanned a window at a time for the next non-resident slot; the
        window doubles while it finds none and starts small again after
        each serviced miss.
        """
        pages = self.config.pages
        vmas = self.vma_by_array.values()
        first = min(vma.start for vma in vmas) >> pages.base_shift
        stop = max((vma.start >> pages.base_shift) + vma.npages for vma in vmas)
        sentinel = stop - first
        resident = np.ones(sentinel + 1, dtype=bool)
        fifo = []
        for vma in vmas:
            lo = (vma.start >> pages.base_shift) - first
            flags = vma.frame >= 0
            resident[lo : lo + vma.npages] = flags
            fifo.append(lo + np.flatnonzero(flags & ~vma.is_huge))
        ring = np.concatenate(fifo).tolist()
        head = swap_ins = 0
        for lo in range(0, trace.keys.size, _CHUNK):
            keys = trace.keys[lo : lo + _CHUNK]
            slots = np.where(keys & 1, sentinel, (keys >> 1) - first)
            n = slots.size
            at, width = 0, _SWAP_WINDOW
            while at < n:
                end = min(at + width, n)
                window = resident[slots[at:end]]
                miss = int(window.argmin())
                if window[miss]:
                    at, width = end, 2 * width
                    continue
                # Exchange: evict the ring's head, reuse its frame.
                page = int(slots[at + miss])
                resident[ring[head]] = False
                resident[page] = True
                ring[head] = page
                head = (head + 1) % len(ring)
                swap_ins += 1
                at, width = at + miss + 1, _SWAP_WINDOW
        self._charge_swap(swap_ins)
        return swap_ins, swap_ins

    def _charge_swap(self, swap_ins: int) -> None:
        """Charge ``swap_ins`` page exchanges to the kernel ledger and
        the swap device.  The one charging path, so a replayed stream
        (:mod:`repro.machine.replay`) reaches the device's fault sites
        exactly as a simulated one does."""
        if swap_ins:
            ledger = self.vmm.node.ledger
            ledger.swap_in(swap_ins)
            ledger.swap_out(swap_ins)
            ledger.minor_fault(swap_ins)
            if self.vmm.swap_device is not None:
                self.vmm.swap_device.page_in(swap_ins)
                self.vmm.swap_device.page_out(swap_ins)

    # ------------------------------------------------------------------
    # Huge-page census
    # ------------------------------------------------------------------

    def huge_fraction_per_array(self) -> dict[str, float]:
        """Huge-page-backed fraction of each array (Fig. 6's outcome)."""
        return {
            vma.name: vma.huge_backed_fraction
            for vma in self.vma_by_array.values()
        }

    def total_huge_bytes(self) -> int:
        """Bytes of the workload's footprint backed by huge pages."""
        return sum(
            vma.huge_backed_bytes for vma in self.vma_by_array.values()
        )

    def footprint_bytes(self) -> int:
        """The workload's working-set size."""
        return self.layout.total_bytes
