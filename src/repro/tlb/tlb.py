"""A set-associative TLB with true-LRU replacement.

This class is the per-access reference the engines are checked
against: ``tests/test_tlb_properties.py``,
``tests/test_engine_properties.py`` and ``tests/test_hierarchy.py``
compare the engines' ``simulate`` with :meth:`SetAssociativeTlb.access`,
``probe``, ``insert`` and ``flush`` and with
:meth:`TranslationHierarchy.access_one
<repro.tlb.hierarchy.TranslationHierarchy.access_one>`.  The batch
simulation hot path in :mod:`repro.tlb.hierarchy` manipulates the same
``sets`` representation directly for speed (lists ordered MRU-first),
so the two always agree.
"""

from __future__ import annotations

from ..config import TlbGeometry


class SetAssociativeTlb:
    """One TLB structure: ``geometry.sets`` sets of ``geometry.ways``
    entries, LRU within each set.

    Entries are opaque integer *keys*; the set index is taken from the
    key's page-number bits (``key >> 1``, see :mod:`repro.tlb.trace`).
    """

    def __init__(self, geometry: TlbGeometry) -> None:
        self.geometry = geometry
        self.set_mask = geometry.sets - 1
        self.sets: list[list[int]] = [[] for _ in range(geometry.sets)]
        # Hash view of every key currently cached, kept in sync by all
        # mutators.  Membership tests are O(1) instead of a set-list
        # scan, so a hit needs exactly one list scan (the LRU reorder)
        # and a miss needs none — the batch loop in
        # :mod:`repro.tlb.hierarchy` leans on this.
        self.resident: set[int] = set()
        self.hits = 0
        self.misses = 0

    def set_index(self, key: int) -> int:
        """Set index for a packed page key."""
        return (key >> 1) & self.set_mask

    def access(self, key: int) -> bool:
        """Look up ``key``; on miss, insert it (filling from L2/walk is
        the hierarchy's concern).  Returns True on hit.

        Maintains LRU: hits move the entry to the MRU position, misses
        insert at MRU and evict the LRU entry if the set is full.
        """
        entries = self.sets[(key >> 1) & self.set_mask]
        if key in self.resident:
            if entries[0] != key:
                entries.remove(key)
                entries.insert(0, key)
            self.hits += 1
            return True
        self.resident.add(key)
        entries.insert(0, key)
        if len(entries) > self.geometry.ways:
            self.resident.discard(entries.pop())
        self.misses += 1
        return False

    def probe(self, key: int) -> bool:
        """Check presence without updating LRU state or counters."""
        return key in self.resident

    def insert(self, key: int) -> int | None:
        """Insert ``key`` at MRU; returns the evicted key, if any."""
        entries = self.sets[(key >> 1) & self.set_mask]
        if key in self.resident:
            entries.remove(key)
        else:
            self.resident.add(key)
        entries.insert(0, key)
        if len(entries) > self.geometry.ways:
            evicted = entries.pop()
            self.resident.discard(evicted)
            return evicted
        return None

    def flush(self) -> None:
        """Invalidate every entry (full shootdown)."""
        for entries in self.sets:
            entries.clear()
        self.resident.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return sum(len(entries) for entries in self.sets)

    @property
    def accesses(self) -> int:
        """Total lookups through :meth:`access`."""
        return self.hits + self.misses
