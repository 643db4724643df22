"""Property-based tests for the TLB structures (hypothesis).

The key invariant: a set-associative LRU structure with one set is an
exact LRU cache, and the batch simulation loop must agree with the
reference single-access path on arbitrary traces.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import TlbConfig, TlbGeometry
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.tlb import SetAssociativeTlb
from repro.tlb.trace import compress_trace

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=300
)


class _LruOracle:
    """Reference LRU cache built on OrderedDict."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        if key in self.data:
            self.data.move_to_end(key, last=False)
            return True
        self.data[key] = None
        self.data.move_to_end(key, last=False)
        if len(self.data) > self.capacity:
            self.data.popitem(last=True)
        return False


@given(keys_strategy)
@settings(max_examples=200, deadline=None)
def test_fully_associative_matches_lru_oracle(page_ids):
    """entries == ways => exact LRU behaviour."""
    tlb = SetAssociativeTlb(TlbGeometry(entries=4, ways=4))
    oracle = _LruOracle(4)
    for page in page_ids:
        key = page << 1
        assert tlb.access(key) == oracle.access(key)


@given(keys_strategy)
@settings(max_examples=200, deadline=None)
def test_set_associative_is_per_set_lru(page_ids):
    """Each set behaves as an independent LRU of `ways` entries."""
    geometry = TlbGeometry(entries=8, ways=2)
    tlb = SetAssociativeTlb(geometry)
    oracles = [_LruOracle(2) for _ in range(geometry.sets)]
    for page in page_ids:
        key = page << 1
        expected = oracles[tlb.set_index(key)].access(key)
        assert tlb.access(key) == expected


@given(keys_strategy)
@settings(max_examples=100, deadline=None)
def test_occupancy_never_exceeds_entries(page_ids):
    tlb = SetAssociativeTlb(TlbGeometry(entries=4, ways=2))
    for page in page_ids:
        tlb.access(page << 1)
        assert tlb.occupancy <= 4


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),  # page
            st.booleans(),  # huge?
            st.integers(min_value=0, max_value=4),  # array id
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_batch_simulation_matches_reference_path(accesses):
    """simulate() must agree exactly with access_one() on any trace."""
    config = TlbConfig(
        l1_base=TlbGeometry(entries=2, ways=2),
        l1_huge=TlbGeometry(entries=2, ways=1),
        l2=TlbGeometry(entries=8, ways=4),
    )
    keys = np.array(
        [(page << 1) | int(huge) for page, huge, _ in accesses],
        dtype=np.int64,
    )
    aids = np.array([aid for _, _, aid in accesses], dtype=np.uint8)

    ref = TranslationHierarchy(config)
    outcomes = [ref.access_one(int(k)) for k in keys]

    sim = TranslationHierarchy(config)
    stats = TranslationStats()
    sim.simulate(compress_trace(keys, aids), stats)

    assert stats.total_accesses == len(accesses)
    assert stats.total_l1_misses == sum(1 for o in outcomes if o != "l1")
    assert stats.total_walks == sum(1 for o in outcomes if o == "walk")
    # Attribution sums must match totals.
    assert int(stats.accesses.sum()) == stats.total_accesses


@given(keys_strategy)
@settings(max_examples=100, deadline=None)
def test_walks_never_exceed_l1_misses(page_ids):
    config = TlbConfig(
        l1_base=TlbGeometry(entries=2, ways=2),
        l1_huge=TlbGeometry(entries=2, ways=2),
        l2=TlbGeometry(entries=4, ways=4),
    )
    h = TranslationHierarchy(config)
    stats = TranslationStats()
    keys = np.array([p << 1 for p in page_ids], dtype=np.int64)
    h.simulate(
        compress_trace(keys, np.zeros(keys.size, dtype=np.uint8)), stats
    )
    assert stats.total_walks <= stats.total_l1_misses <= stats.total_accesses


# ----------------------------------------------------------------------
# LRU inclusion (metamorphic, both engines)
# ----------------------------------------------------------------------
#
# Within one set, an LRU structure with W + 1 ways always holds a
# superset of what the W-way one holds (the stack property), so adding
# ways at a fixed set count can only turn misses into hits, access by
# access.  The counts are attributed per array, so the bound holds per
# array, not just in total.

split_trace_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # page
        st.booleans(),  # huge?
        st.integers(min_value=0, max_value=4),  # array id
    ),
    min_size=1,
    max_size=300,
)
geometry_strategy = st.tuples(
    st.sampled_from([1, 2, 4]),  # sets
    st.integers(min_value=1, max_value=4),  # ways
)


def _geometry(sets: int, ways: int) -> TlbGeometry:
    return TlbGeometry(entries=sets * ways, ways=ways)


def _simulate(engine, config: TlbConfig, accesses) -> TranslationStats:
    keys = np.array(
        [(page << 1) | int(huge) for page, huge, _ in accesses],
        dtype=np.int64,
    )
    aids = np.array([aid for _, _, aid in accesses], dtype=np.uint8)
    stats = TranslationStats()
    engine(config).simulate(compress_trace(keys, aids), stats)
    return stats


@pytest.mark.parametrize(
    "engine", [TranslationHierarchy, BatchTranslationHierarchy]
)
@given(
    accesses=split_trace_strategy,
    l1_base=geometry_strategy,
    l1_huge=geometry_strategy,
    l2=geometry_strategy,
    extra_base=st.integers(min_value=0, max_value=3),
    extra_huge=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_more_l1_ways_never_add_l1_misses(
    engine, accesses, l1_base, l1_huge, l2, extra_base, extra_huge
):
    assume(extra_base + extra_huge > 0)
    (base_sets, base_ways), (huge_sets, huge_ways) = l1_base, l1_huge
    small = TlbConfig(
        l1_base=_geometry(base_sets, base_ways),
        l1_huge=_geometry(huge_sets, huge_ways),
        l2=_geometry(*l2),
    )
    large = TlbConfig(
        l1_base=_geometry(base_sets, base_ways + extra_base),
        l1_huge=_geometry(huge_sets, huge_ways + extra_huge),
        l2=small.l2,
    )
    before = _simulate(engine, small, accesses)
    after = _simulate(engine, large, accesses)
    assert np.all(after.l1_misses <= before.l1_misses)


@pytest.mark.parametrize(
    "engine", [TranslationHierarchy, BatchTranslationHierarchy]
)
@given(
    accesses=split_trace_strategy,
    l1_base=geometry_strategy,
    l1_huge=geometry_strategy,
    l2=geometry_strategy,
    extra=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_more_stlb_ways_never_add_walks(
    engine, accesses, l1_base, l1_huge, l2, extra
):
    l2_sets, l2_ways = l2
    small = TlbConfig(
        l1_base=_geometry(*l1_base),
        l1_huge=_geometry(*l1_huge),
        l2=_geometry(l2_sets, l2_ways),
    )
    large = TlbConfig(
        l1_base=small.l1_base,
        l1_huge=small.l1_huge,
        l2=_geometry(l2_sets, l2_ways + extra),
    )
    before = _simulate(engine, small, accesses)
    after = _simulate(engine, large, accesses)
    # The STLB sees only L1 misses, so the L1 stream is untouched.
    assert np.array_equal(after.l1_misses, before.l1_misses)
    assert np.all(after.walks <= before.walks)
