"""Equivalence properties for the vectorized batch translation engine.

The batch engine's only contract is *bit-identical counts* to the exact
per-lookup simulator (``TranslationHierarchy`` / ``access_one``) on any
trace sequence — including carried TLB state across ``simulate`` calls,
flushes, fused vs split L1 geometries, and every addressing mode of the
closed-sets fast path (direct, rebased for large-base keys, wide-direct).

Seeded-random streams drive both engines through identical segment
sequences; a spy on ``_closed_l1_decide`` pins down *which* decision
procedure actually ran, so the fast-path tests cannot silently pass via
the chunked fallback.
"""

import copy

import numpy as np
import pytest

from repro.config import TlbConfig, TlbGeometry
from repro.tlb.engine import (
    TLB_ENGINES,
    BatchTranslationHierarchy,
    batch_engine_matches,
    make_hierarchy,
)
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.trace import compress_trace

GEOMETRIES = {
    # Direct-mapped everywhere: every re-reference of a conflicting key
    # misses, the harshest eviction pattern.
    "ways-1": TlbConfig(
        l1_base=TlbGeometry(entries=8, ways=1),
        l1_huge=TlbGeometry(entries=4, ways=1),
        l2=TlbGeometry(entries=16, ways=1),
    ),
    # Fully associative: one set, pure LRU.
    "full-assoc": TlbConfig(
        l1_base=TlbGeometry(entries=4, ways=4),
        l1_huge=TlbGeometry(entries=4, ways=4),
        l2=TlbGeometry(entries=8, ways=8),
    ),
    # Non-power-of-two ways (sets stay a power of two), split L1.
    "split-12way": TlbConfig(
        l1_base=TlbGeometry(entries=16, ways=4),
        l1_huge=TlbGeometry(entries=8, ways=2),
        l2=TlbGeometry(entries=48, ways=12),
    ),
    # Identical L1 geometries -> the engine fuses both size classes
    # into one structure pass.
    "fused": TlbConfig(
        l1_base=TlbGeometry(entries=8, ways=4),
        l1_huge=TlbGeometry(entries=8, ways=4),
        l2=TlbGeometry(entries=32, ways=4),
    ),
}


def _run_both(config, segments, flush_after=frozenset()):
    """Drive exact and batch engines through identical segments;
    assert every stats array matches exactly."""
    exact = TranslationHierarchy(config)
    batch = BatchTranslationHierarchy(config)
    exact_stats = TranslationStats()
    batch_stats = TranslationStats()
    for i, (keys, aids) in enumerate(segments):
        trace = compress_trace(keys, aids)
        exact.simulate(trace, exact_stats)
        batch.simulate(trace, batch_stats)
        if i in flush_after:
            exact.flush()
            batch.flush()
    np.testing.assert_array_equal(exact_stats.accesses, batch_stats.accesses)
    np.testing.assert_array_equal(
        exact_stats.l1_misses, batch_stats.l1_misses
    )
    np.testing.assert_array_equal(exact_stats.walks, batch_stats.walks)
    return exact_stats


def _random_segments(
    rng, num_segments, seg_size, num_pages, base=0, huge_fraction=0.3
):
    segments = []
    for _ in range(num_segments):
        n = int(rng.integers(1, seg_size + 1))
        pages = rng.integers(0, num_pages, size=n) + base
        huge = rng.random(n) < huge_fraction
        keys = ((pages << 1) | huge).astype(np.int64)
        aids = rng.integers(0, 5, size=n).astype(np.uint8)
        segments.append((keys, aids))
    return segments


@pytest.fixture
def fast_path_spy(monkeypatch):
    """Record whether each simulate() call took the closed-sets fast
    path (decision returned non-None) or fell through to chunks."""
    fired = []
    original = BatchTranslationHierarchy._closed_l1_decide

    def spy(self, lookup_keys, kmax):
        result = original(self, lookup_keys, kmax)
        fired.append(result is not None)
        return result

    monkeypatch.setattr(BatchTranslationHierarchy, "_closed_l1_decide", spy)
    return fired


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_streams_match_exact(name, seed):
    """Carried state + random flushes across many segments."""
    rng = np.random.default_rng(1000 * seed + hash(name) % 997)
    segments = _random_segments(rng, num_segments=6, seg_size=800, num_pages=64)
    flush_after = {int(i) for i in rng.integers(0, 6, size=2)}
    _run_both(GEOMETRIES[name], segments, flush_after)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_multi_chunk_stream_matches_exact(name):
    """A single segment longer than the engine's chunk size exercises
    warm-state carry between chunks inside one simulate() call."""
    from repro.tlb.engine import _CHUNK

    rng = np.random.default_rng(7)
    n = _CHUNK + 1234
    pages = rng.integers(0, 256, size=n)
    keys = ((pages << 1) | (rng.random(n) < 0.25)).astype(np.int64)
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    _run_both(GEOMETRIES[name], [(keys, aids)])


@pytest.mark.parametrize("name", ["fused", "split-12way", "ways-1"])
def test_closed_fast_path_with_carried_state(name, fast_path_spy):
    """Small key universes stay closed: the fast path must fire, and a
    carried key recurring in a later segment must not be re-counted as
    a miss (regression guard for the first-occurrence scatter order)."""
    config = GEOMETRIES[name]
    rng = np.random.default_rng(11)
    # Few enough distinct keys that every L1 set holds its share.
    universe = np.array([0, 2, 4, 6, 1, 3], dtype=np.int64)
    segments = []
    for _ in range(5):
        n = int(rng.integers(50, 200))
        segments.append(
            (
                universe[rng.integers(0, universe.size, size=n)],
                rng.integers(0, 5, size=n).astype(np.uint8),
            )
        )
    _run_both(config, segments)
    assert any(fast_path_spy), "closed stream never took the fast path"


def test_closed_fast_path_rebased_large_base(fast_path_spy):
    """Keys clustered near 2**30 (a 64GB node's VPNs): the fast path
    must rebase rather than decline, and still match exactly."""
    rng = np.random.default_rng(13)
    base = 1 << 30
    segments = _random_segments(
        rng, num_segments=4, seg_size=300, num_pages=4, base=base
    )
    _run_both(GEOMETRIES["fused"], segments)
    assert any(fast_path_spy), "rebased closed stream never fast-pathed"


def test_closed_fast_path_wide_direct(fast_path_spy):
    """Distinct keys spread over more than 2**16 but below 2**24: the
    span is too wide to rebase into a 16-bit table, so the wide-direct
    table must pick it up.  The stride keeps every key in one L1 set,
    so the universe must fit within a single set's ways."""
    rng = np.random.default_rng(17)
    universe = (np.arange(4, dtype=np.int64) * (1 << 17)) << 1
    n = 500
    keys = universe[rng.integers(0, universe.size, size=n)]
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    _run_both(GEOMETRIES["fused"], [(keys, aids)])
    assert any(fast_path_spy), "wide-span closed stream never fast-pathed"


def test_open_stream_declines_fast_path(fast_path_spy):
    """A stream with more conflicting keys than L1 capacity must fall
    through to the chunked engine — and still match."""
    rng = np.random.default_rng(19)
    segments = _random_segments(
        rng, num_segments=2, seg_size=2000, num_pages=512
    )
    _run_both(GEOMETRIES["ways-1"], segments)
    assert not all(fast_path_spy), "over-capacity stream fast-pathed"


def test_non_power_of_two_occupancy():
    """Odd-sized streams and partial sets (the non-power-of-two
    occupancy case) across every geometry."""
    rng = np.random.default_rng(23)
    for config in GEOMETRIES.values():
        for n in (1, 3, 7, 129, 1021):
            pages = rng.integers(0, 48, size=n)
            keys = ((pages << 1) | (rng.random(n) < 0.5)).astype(np.int64)
            aids = rng.integers(0, 5, size=n).astype(np.uint8)
            _run_both(config, [(keys, aids)])


def test_make_hierarchy_engine_selection():
    config = GEOMETRIES["split-12way"]
    assert isinstance(make_hierarchy("exact", config), TranslationHierarchy)
    batch = make_hierarchy("batch", config)
    assert isinstance(batch, BatchTranslationHierarchy)
    assert batch.engine == "batch"
    assert make_hierarchy("exact", config).engine == "exact"
    # auto = batch after the one-time per-geometry self-check.
    assert batch_engine_matches(config)
    assert isinstance(
        make_hierarchy("auto", config), BatchTranslationHierarchy
    )
    with pytest.raises(ValueError):
        make_hierarchy("per-lookup", config)
    assert set(TLB_ENGINES) == {"exact", "batch", "auto"}



def _same_state(a, b):
    """Snapshots compare by content (batch snapshots hold arrays)."""
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b, strict=True)
    )


@pytest.mark.parametrize("engine", ["exact", "batch"])
@pytest.mark.parametrize("name", ["fused", "split-12way"])
@pytest.mark.parametrize("case", ["plain", "flushed", "multi-chunk"])
def test_snapshot_restore_continues_exactly(engine, name, case):
    """Simulating A then B on one engine gives the same counts and end
    state as simulating A, snapshotting, restoring the snapshot into a
    fresh engine and simulating B there."""
    from repro.tlb.engine import _CHUNK

    config = GEOMETRIES[name]
    rng = np.random.default_rng(29)
    # Multi-chunk streams make the snapshot carry state that was
    # itself carried between chunks.
    n = 2 * _CHUNK + 777 if case == "multi-chunk" else 900
    traces = []
    for _ in range(2):
        pages = rng.integers(0, 96, size=n)
        keys = ((pages << 1) | (rng.random(n) < 0.3)).astype(np.int64)
        aids = rng.integers(0, 5, size=n).astype(np.uint8)
        traces.append(compress_trace(keys, aids))
    trace_a, trace_b = traces

    straight = make_hierarchy(engine, config)
    straight_stats = TranslationStats()
    straight.simulate(trace_a, straight_stats)
    if case == "flushed":
        straight.flush()
    straight.simulate(trace_b, straight_stats)

    first = make_hierarchy(engine, config)
    split_stats = TranslationStats()
    first.simulate(trace_a, split_stats)
    if case == "flushed":
        first.flush()
    snap = first.snapshot()
    kept = copy.deepcopy(snap)
    resumed = make_hierarchy(engine, config)
    resumed.restore(snap)
    resumed.simulate(trace_b, split_stats)

    np.testing.assert_array_equal(straight_stats.accesses, split_stats.accesses)
    np.testing.assert_array_equal(
        straight_stats.l1_misses, split_stats.l1_misses
    )
    np.testing.assert_array_equal(straight_stats.walks, split_stats.walks)
    assert _same_state(resumed.snapshot(), straight.snapshot())
    # Simulating from a restored snapshot leaves the snapshot intact.
    assert _same_state(snap, kept)
