"""The batch engine's converged-state replay of held traces.

A read-only trace (``SimProcess.translate`` holds one per repeated
stream) keeps the checkpoints of the batch engine's last full run over
it.  A later run of the same hierarchy that reaches a chunk boundary in
the state the record has there stops simulating, and takes the rest of
the counts and the final state from the record.  These tests check, on
a fused L1 geometry (``scaled-1m``) and a split one (``paper-x86``),
inline and pipelined, that:

- counts equal the exact engine's and those of the batch engine with
  replay disabled, and ``snapshot()`` equals the latter's and the exact
  engine's state;
- a trace whose sparse STLB sets keep keys a previous run left behind
  does not converge, and the latest full run replaces the record;
- an STLB failure once convergence is armed still reaches the caller,
  with no thread left behind and the record untouched;
- writable traces are never recorded, and a dropped trace frees its
  record.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np
import pytest

from repro.config import paper_x86, scaled_1m, tiny
from repro.graph.generators import uniform_graph
from repro.machine import machine as machine_mod
from repro.machine.machine import Machine
from repro.mem.thp import ThpPolicy
from repro.tlb import engine
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.trace import compress_trace
from repro.workloads.pagerank import PageRank
from test_engine_pipeline import _call_with_deadline

PROFILES = {"scaled-1m": scaled_1m, "paper-x86": paper_x86}
"""A fused L1 (identical base and huge geometries) and a split one."""

SMALL_CHUNK = 1 << 12
"""Chunk size for the synthetic cases: many boundaries, fast exact runs."""


class InjectedFailure(RuntimeError):
    pass


@pytest.fixture(params=sorted(PROFILES))
def config(request):
    return PROFILES[request.param]().tlb


@pytest.fixture(params=["inline", "pipelined"])
def path(request, monkeypatch):
    monkeypatch.setattr(
        engine, "_INLINE_CHUNKS", 0 if request.param == "pipelined" else 1 << 30
    )
    return request.param


def _freeze(trace):
    """Make ``trace`` read-only, as ``SimProcess.translate`` holds it."""
    for array in (*trace.lookup_view(), trace.keys, trace.counts):
        array.setflags(write=False)
    trace.array_ids.setflags(write=False)
    return trace


def _random_trace(seed: int, n: int, pages: int = 4096, frozen=True):
    """Both size classes over a few thousand pages: every set of every
    level saturates within a chunk."""
    rng = np.random.default_rng(seed)
    p = rng.integers(0, pages, size=n)
    keys = ((p << 1) | (rng.random(n) < 0.25)).astype(np.int64)
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    trace = compress_trace(keys, aids)
    return _freeze(trace) if frozen else trace


def _no_repeats(rng, pool: np.ndarray, n: int, after: int) -> np.ndarray:
    """``n`` draws from ``pool`` with no two adjacent draws equal and
    the first unlike ``after``, so no lookups coalesce and chunk ``c``
    is exactly draws ``c``."""
    draws = pool[rng.integers(0, pool.size, size=n)]
    while True:
        dup = np.flatnonzero(draws == np.append(after, draws[:-1]))
        if dup.size == 0:
            return draws
        draws[dup] = pool[rng.integers(0, pool.size, size=dup.size)]


def _sparse_trace(chunks: int, kmin: int, grow: bool, seed: int):
    """Base pages ``s + 128 * k`` (``s`` an STLB set, ``k`` in
    ``[kmin, kmin + chunks)``): four keys per STLB set, far fewer than
    its ways, while every L1 set sees sixteen.  With ``grow``, chunk
    ``c`` only reaches ``k <= kmin + c``, so a run that starts with the
    later chunks' keys still resident — as a repeat run does, because
    the sets never evict — differs from the first at every boundary but
    the last, like huge-page keys in a ``thp`` cell."""
    rng = np.random.default_rng(seed)
    sets = np.arange(128, dtype=np.int64)
    parts = [np.array([-1])]
    for c in range(chunks):
        top = kmin + (c + 1 if grow else chunks)
        pool = (sets[None, :] + 128 * np.arange(kmin, top)[:, None]).ravel()
        parts.append(_no_repeats(rng, pool, engine._CHUNK, parts[-1][-1]))
    del parts[0]
    keys = np.concatenate(parts) << 1
    aids = rng.integers(0, 4, size=keys.size).astype(np.uint8)
    trace = compress_trace(keys, aids)
    assert trace.lookup_view()[0].size == chunks * engine._CHUNK
    return _freeze(trace)


def _as_batch_state(exact_snapshot, fused: bool):
    """An exact snapshot (per level, sets MRU-first) in the batch
    engine's layout (per structure, set-major, LRU-first)."""
    base, huge, l2 = (
        [np.array(entries[::-1], dtype=np.int64) for entries in level]
        for level in exact_snapshot
    )
    empty = np.empty(0, dtype=np.int64)

    def flat(sets):
        return np.concatenate(sets) if sets else empty

    if fused:
        # Fused set 2i + parity holds the base (0) or huge (1) set i.
        l1 = [flat([s for pair in zip(base, huge) for s in pair])]
    else:
        l1 = [flat(base), flat(huge)]
    return (*l1, flat(l2))


def _replay_off(monkeypatch):
    monkeypatch.setattr(engine, "_same_states", lambda a, b: False)


def _run(hierarchy, steps):
    """Simulate ``steps`` (traces, or ``"flush"``); returns the counts
    after each trace and the end state."""
    stats = TranslationStats()
    counts = []
    for step in steps:
        if step == "flush":
            hierarchy.flush()
            continue
        hierarchy.simulate(step, stats)
        counts.append(
            (stats.accesses.copy(), stats.l1_misses.copy(), stats.walks.copy())
        )
    return counts, hierarchy.snapshot()


def _check_against_references(config, steps, monkeypatch):
    """Run ``steps`` on the batch engine, then with replay disabled and
    on the exact engine, and require equal counts and states.  Returns
    the chunks replayed on each trace step."""
    batch = BatchTranslationHierarchy(config)
    replayed = []
    stats = TranslationStats()
    counts = []
    for step in steps:
        if step == "flush":
            batch.flush()
            continue
        before = batch.chunks_replayed
        batch.simulate(step, stats)
        replayed.append(batch.chunks_replayed - before)
        counts.append(
            (stats.accesses.copy(), stats.l1_misses.copy(), stats.walks.copy())
        )
    state = batch.snapshot()

    exact_counts, exact_state = _run(TranslationHierarchy(config), steps)
    with monkeypatch.context() as patch:
        _replay_off(patch)
        off = BatchTranslationHierarchy(config)
        off_counts, off_state = _run(off, steps)
        assert off.chunks_replayed == 0

    for got, plain, exact in zip(counts, off_counts, exact_counts, strict=True):
        for x, y, z in zip(got, plain, exact):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(x, z)
    for x, y, z in zip(
        state,
        off_state,
        _as_batch_state(exact_state, batch.l1_fused is not None),
        strict=True,
    ):
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(x, z)
    return replayed


def test_repeat_runs_converge_and_match(config, path, monkeypatch):
    """A held trace simulated four times, with another trace and a
    flush in between, converges at a non-final chunk on every repeat."""
    held = _random_trace(1, 4 * engine._CHUNK + 999)
    other = _random_trace(2, engine._CHUNK + 333)
    chunks = -(-held.lookup_view()[0].size // engine._CHUNK)
    steps = [held, other, held, "flush", held, held]
    replayed = _check_against_references(config, steps, monkeypatch)
    assert replayed[:2] == [0, 0]
    assert all(0 < r < chunks for r in replayed[2:]), replayed


def test_stale_sparse_sets_do_not_converge(config, path, monkeypatch):
    """Sets that never fill keep the keys an earlier run left, so
    the repeat run's outcomes really differ and it must not converge."""
    monkeypatch.setattr(engine, "_CHUNK", SMALL_CHUNK)
    other = _sparse_trace(2, kmin=4, grow=False, seed=3)
    held = _sparse_trace(4, kmin=0, grow=True, seed=4)
    steps = [other, held, held]
    replayed = _check_against_references(config, steps, monkeypatch)
    assert replayed == [0, 0, 0]

    hierarchy = BatchTranslationHierarchy(config)
    counts, _ = _run(hierarchy, steps)
    first = counts[1][2] - counts[0][2]
    second = counts[2][2] - counts[1][2]
    assert int(second.sum()) < int(first.sum())


def test_latest_full_run_replaces_the_record(config, path, monkeypatch):
    """The run that did not converge becomes the record, so the
    third run converges with the second; a converged run leaves the
    record in place."""
    monkeypatch.setattr(engine, "_CHUNK", SMALL_CHUNK)
    other = _sparse_trace(2, kmin=4, grow=False, seed=3)
    held = _sparse_trace(4, kmin=0, grow=True, seed=4)
    steps = [other, held, held, held, held]
    replayed = _check_against_references(config, steps, monkeypatch)
    assert replayed == [0, 0, 0, 3, 3]

    hierarchy = BatchTranslationHierarchy(config)
    stats = TranslationStats()
    hierarchy.simulate(other, stats)
    hierarchy.simulate(held, stats)
    first = held._checkpoints[1]
    hierarchy.simulate(held, stats)
    second = held._checkpoints[1]
    assert second is not first
    assert held._checkpoints[0] is hierarchy
    assert len(second) == 4
    hierarchy.simulate(held, stats)
    assert hierarchy.chunks_replayed == 3
    assert held._checkpoints[1] is second


def test_records_of_another_hierarchy_are_ignored(config):
    held = _random_trace(5, 3 * engine._CHUNK)
    one = BatchTranslationHierarchy(config)
    one.simulate(held, TranslationStats())
    two = BatchTranslationHierarchy(config)
    two.simulate(held, TranslationStats())
    assert two.chunks_replayed == 0
    assert held._checkpoints[0] is two


def test_stlb_failure_after_convergence_is_armed(config, monkeypatch):
    """A pipelined repeat run whose STLB stage fails before it can
    converge: the failure reaches the caller, no thread outlives the
    call, and the record stays the earlier run's."""
    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 0)
    monkeypatch.setattr(engine, "_QUEUE_DEPTH", 1)
    hierarchy = BatchTranslationHierarchy(config)
    held = _random_trace(6, 5 * engine._CHUNK)
    want = TranslationStats()
    hierarchy.simulate(held, want)
    record = held._checkpoints
    assert record is not None and record[0] is hierarchy

    original = hierarchy.l2.simulate

    def failing(keys):
        raise InjectedFailure("stlb")

    monkeypatch.setattr(hierarchy.l2, "simulate", failing)
    before = threading.active_count()
    stats = TranslationStats()
    error = _call_with_deadline(lambda: hierarchy.simulate(held, stats))
    assert isinstance(error, InjectedFailure)
    assert threading.active_count() == before
    assert int(stats.l1_misses.sum()) == 0
    assert held._checkpoints is record

    # The record still serves a later run from the same state.
    monkeypatch.setattr(hierarchy.l2, "simulate", original)
    hierarchy.flush()
    got = TranslationStats()
    hierarchy.simulate(held, got)
    assert hierarchy.chunks_replayed > 0
    np.testing.assert_array_equal(got.walks, want.walks)
    np.testing.assert_array_equal(got.l1_misses, want.l1_misses)


def test_writable_traces_are_never_recorded(config):
    """Frontier streams are writable: no record, no replay."""
    trace = _random_trace(7, 3 * engine._CHUNK, frozen=False)
    hierarchy = BatchTranslationHierarchy(config)
    for _ in range(2):
        hierarchy.simulate(trace, TranslationStats())
    assert trace._checkpoints is None
    assert hierarchy.chunks_replayed == 0


def test_a_dropped_trace_frees_its_record(config):
    """The record lives on the trace: it goes when the trace goes,
    and the hierarchy keeps neither alive."""
    hierarchy = BatchTranslationHierarchy(config)
    held = _random_trace(8, 3 * engine._CHUNK)
    hierarchy.simulate(held, TranslationStats())
    record = held._checkpoints[1]
    assert len(record) == 3
    trace_ref = weakref.ref(held)
    counts_ref = weakref.ref(record[0].l1_misses)
    del held, record
    assert trace_ref() is None
    assert counts_ref() is None


def test_pagerank_replays_under_the_machine(monkeypatch):
    """End to end: PageRank's held sweeps converge on repeat
    iterations, and the cell equals the exact engine's."""
    monkeypatch.setattr(engine, "_CHUNK", 1 << 11)
    graph = uniform_graph(num_vertices=16384, num_edges=65536, seed=9)
    made = []
    original = machine_mod.make_hierarchy

    def capture(name, cfg):
        made.append(original(name, cfg))
        return made[-1]

    monkeypatch.setattr(machine_mod, "make_hierarchy", capture)

    def run(name):
        workload = PageRank(graph, epsilon=0.0, max_iterations=3)
        return Machine(tiny(), ThpPolicy.never(), tlb_engine=name).run(
            workload
        )

    batch = run("batch")
    exact = run("exact")
    assert made[0].chunks_replayed > 0
    assert batch.kernel_cycles == exact.kernel_cycles
    for a, b in (
        (batch.translation.l1_misses, exact.translation.l1_misses),
        (batch.translation.walks, exact.translation.walks),
    ):
        np.testing.assert_array_equal(a, b)
