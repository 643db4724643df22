"""Unit tests for the two-level translation hierarchy."""

import numpy as np
import pytest

from repro.config import CostModel, TlbConfig, TlbGeometry, tiny
from repro.tlb.hierarchy import (
    MAX_ARRAY_IDS,
    TranslationHierarchy,
    TranslationStats,
)
from repro.tlb.trace import TlbTrace, compress_trace


def make_hierarchy():
    return TranslationHierarchy(
        TlbConfig(
            l1_base=TlbGeometry(entries=2, ways=2),
            l1_huge=TlbGeometry(entries=2, ways=2),
            l2=TlbGeometry(entries=8, ways=4),
        )
    )


def trace_of(keys, aids=None):
    keys = np.asarray(keys, dtype=np.int64)
    if aids is None:
        aids = np.zeros(keys.size, dtype=np.uint8)
    else:
        aids = np.asarray(aids, dtype=np.uint8)
    return compress_trace(keys, aids)


class TestAccessOne:
    def test_walk_then_l2_then_l1(self):
        h = make_hierarchy()
        key = 7 << 1
        assert h.access_one(key) == "walk"
        # Evict from L1 by touching two conflicting pages.
        h.access_one(9 << 1)
        h.access_one(11 << 1)
        assert h.access_one(key) == "l2"
        assert h.access_one(key) == "l1"

    def test_huge_and_base_use_separate_l1(self):
        h = make_hierarchy()
        h.access_one(5 << 1)
        assert h.access_one((5 << 1) | 1) == "walk"  # same page, huge class
        assert h.access_one(5 << 1) == "l1"


class TestSimulate:
    def test_counts_match_access_one(self):
        """Batch simulation must agree with the single-access reference
        path on a random trace."""
        rng = np.random.default_rng(7)
        keys = (rng.integers(0, 40, 2000) << 1) | rng.integers(0, 2, 2000)
        ref = make_hierarchy()
        outcomes = [ref.access_one(int(k)) for k in keys]
        expected_l1_miss = sum(1 for o in outcomes if o != "l1")
        expected_walks = sum(1 for o in outcomes if o == "walk")

        h = make_hierarchy()
        stats = TranslationStats()
        h.simulate(trace_of(keys), stats)
        assert stats.total_accesses == 2000
        assert stats.total_l1_misses == expected_l1_miss
        assert stats.total_walks == expected_walks

    def test_run_tail_counts_as_l1_hits(self):
        h = make_hierarchy()
        stats = TranslationStats()
        h.simulate(trace_of([4, 4, 4, 4]), stats)
        assert stats.total_accesses == 4
        assert stats.total_l1_misses == 1
        assert stats.total_walks == 1

    def test_per_array_attribution(self):
        h = make_hierarchy()
        stats = TranslationStats()
        keys = [10 << 1, 20 << 1, 10 << 1]
        aids = [3, 1, 3]
        h.simulate(trace_of(keys, aids), stats)
        assert stats.accesses[3] == 2
        assert stats.accesses[1] == 1
        assert stats.l1_misses[1] == 1

    def test_adjacent_same_key_runs_charge_miss_to_leader(self):
        """Coalesced lookups: when consecutive runs touch the same page
        from different arrays, the one TLB miss lands on the leading
        run's array; the follower only gets its access count."""
        h = make_hierarchy()
        stats = TranslationStats()
        h.simulate(trace_of([4, 4], [1, 0]), stats)
        assert stats.accesses[1] == 1
        assert stats.accesses[0] == 1
        assert stats.l1_misses[1] == 1
        assert stats.l1_misses[0] == 0
        assert stats.walks[1] == 1

    def test_stats_merge(self):
        a = TranslationStats()
        b = TranslationStats()
        a.accesses[0] = 5
        b.accesses[0] = 7
        b.walks[1] = 2
        a.merge(b)
        assert a.accesses[0] == 12
        assert a.walks[1] == 2

    def test_rates(self):
        stats = TranslationStats()
        stats.accesses[0] = 100
        stats.l1_misses[0] = 40
        stats.walks[0] = 10
        assert stats.l1_miss_rate == pytest.approx(0.4)
        assert stats.walk_rate == pytest.approx(0.1)

    def test_translation_cycles(self):
        stats = TranslationStats()
        stats.accesses[0] = 100
        stats.l1_misses[0] = 40
        stats.walks[0] = 10
        cost = CostModel(l1_tlb_hit=0.0, l2_tlb_hit=10.0, page_walk=100.0)
        assert stats.translation_cycles(cost) == 30 * 10 + 10 * 100

    def test_translation_cycles_pinned_formula(self):
        """Pin the exact cost formula: L1 hits, STLB hits and walks each
        pay exactly their own cost — no cross terms, no dead terms."""
        stats = TranslationStats()
        stats.accesses[0] = 70
        stats.accesses[1] = 30
        stats.l1_misses[0] = 20
        stats.l1_misses[1] = 10
        stats.walks[0] = 7
        stats.walks[1] = 3
        cost = CostModel(l1_tlb_hit=2.0, l2_tlb_hit=9.0, page_walk=140.0)
        # 100 accesses, 30 L1 misses, 10 walks:
        #   70 L1 hits   * 2   = 140
        #   20 STLB hits * 9   = 180
        #   10 walks     * 140 = 1400
        assert stats.translation_cycles(cost) == 140 + 180 + 1400

    def test_translation_cycles_from_simulation(self):
        """The formula applied to simulated counts, hand-computed: a
        cold walk, an L1 hit, an L1-evicted STLB hit."""
        h = make_hierarchy()
        stats = TranslationStats()
        # L1 base is 2-entry/2-way (one set): two conflicting pages plus
        # a revisit of the first give walk, walk, walk, l1, l2.
        h.simulate(trace_of([2 << 1, 3 << 1, 4 << 1, 4 << 1, 2 << 1]), stats)
        assert stats.total_accesses == 5
        assert stats.total_l1_misses == 4
        assert stats.total_walks == 3
        cost = CostModel(l1_tlb_hit=1.0, l2_tlb_hit=9.0, page_walk=140.0)
        assert stats.translation_cycles(cost) == 1 * 1 + 1 * 9 + 3 * 140

    def test_empty_stats(self):
        stats = TranslationStats()
        assert stats.l1_miss_rate == 0.0
        assert stats.walk_rate == 0.0

    def test_flush(self):
        h = make_hierarchy()
        h.access_one(3 << 1)
        h.flush()
        assert h.access_one(3 << 1) == "walk"

    def test_per_array_names(self):
        stats = TranslationStats()
        stats.accesses[3] = 9
        out = stats.per_array({3: "property_array"})
        assert out["property_array"]["accesses"] == 9


class TestCoverageBehaviour:
    def test_huge_pages_increase_reach(self):
        """The paper's core effect: a working set that thrashes the base
        hierarchy fits entirely via huge pages."""
        cfg = tiny()
        pages_per_huge = cfg.pages.frames_per_huge
        # 64 base pages: far beyond the tiny L2 (16 entries).
        base_keys = np.repeat(
            np.arange(64, dtype=np.int64) << 1, 1
        )
        rng = np.random.default_rng(3)
        base_trace = trace_of(rng.permutation(np.tile(base_keys, 10)))
        h = TranslationHierarchy(cfg.tlb)
        stats_base = TranslationStats()
        h.simulate(base_trace, stats_base)

        # The same 64 pages as 4 huge pages: fits the huge L1+L2 easily.
        huge_keys = (
            (np.arange(64, dtype=np.int64) // pages_per_huge) << 1
        ) | 1
        huge_trace = trace_of(rng.permutation(np.tile(huge_keys, 10)))
        h2 = TranslationHierarchy(cfg.tlb)
        stats_huge = TranslationStats()
        h2.simulate(huge_trace, stats_huge)

        assert stats_huge.walk_rate < 0.1 * stats_base.walk_rate + 0.05
        assert stats_huge.l1_miss_rate < stats_base.l1_miss_rate
