"""Unit tests for the set-associative TLB structure."""

import pytest

from repro.config import TlbGeometry
from repro.tlb.tlb import SetAssociativeTlb


def make(entries=8, ways=4):
    return SetAssociativeTlb(TlbGeometry(entries=entries, ways=ways))


class TestBasics:
    def test_miss_then_hit(self):
        tlb = make()
        assert tlb.access(2 << 1) is False
        assert tlb.access(2 << 1) is True
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_occupancy(self):
        tlb = make()
        for vpn in range(5):
            tlb.access(vpn << 1)
        assert tlb.occupancy == 5

    def test_set_index_uses_page_bits(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        # Keys with the same page number but different size bits share a
        # set (the size bit is not part of the index).
        assert tlb.set_index((5 << 1) | 1) == tlb.set_index(5 << 1)
        assert tlb.set_index(4 << 1) != tlb.set_index(5 << 1)

    def test_flush(self):
        tlb = make()
        tlb.access(1 << 1)
        tlb.flush()
        assert tlb.occupancy == 0
        assert tlb.access(1 << 1) is False


class TestLruReplacement:
    def test_lru_eviction_order(self):
        """With 1 set of 2 ways, the least recently used entry leaves."""
        tlb = make(entries=2, ways=2)
        a, b, c = (vpn << 1 for vpn in (0, 1, 2))
        tlb.access(a)
        tlb.access(b)
        tlb.access(a)  # refresh a; b is now LRU
        tlb.access(c)  # evicts b
        assert tlb.probe(a)
        assert not tlb.probe(b)
        assert tlb.probe(c)

    def test_insert_returns_evicted(self):
        tlb = make(entries=2, ways=2)
        assert tlb.insert(0 << 1) is None
        assert tlb.insert(1 << 1) is None
        evicted = tlb.insert(2 << 1)
        assert evicted == 0 << 1

    def test_conflict_only_within_set(self):
        tlb = make(entries=4, ways=1)  # 4 direct-mapped sets
        # Pages 0 and 4 collide; page 1 does not.
        tlb.access(0 << 1)
        tlb.access(1 << 1)
        tlb.access(4 << 1)  # evicts page 0
        assert not tlb.probe(0 << 1)
        assert tlb.probe(1 << 1)
        assert tlb.probe(4 << 1)

    def test_working_set_within_capacity_never_misses_twice(self):
        """Any working set that fits one set's ways has only cold
        misses."""
        tlb = make(entries=4, ways=4)  # fully associative
        keys = [vpn << 1 for vpn in range(4)]
        for key in keys:
            tlb.access(key)
        for _ in range(3):
            for key in keys:
                assert tlb.access(key) is True

    def test_thrash_beyond_capacity(self):
        """A cyclic working set one larger than a fully-associative TLB
        misses every access under LRU."""
        tlb = make(entries=4, ways=4)
        keys = [vpn << 1 for vpn in range(5)]
        for _ in range(3):
            for key in keys:
                tlb.access(key)
        assert tlb.hits == 0
