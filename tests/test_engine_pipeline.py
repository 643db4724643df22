"""The batch engine's pipelined STLB stage.

On streams longer than ``_INLINE_CHUNKS`` chunks,
``BatchTranslationHierarchy.simulate`` runs the STLB and the walk
attribution on a worker thread, one chunk behind the L1 pass, fed in
order through a bounded queue.  These tests force that path whatever
the host's CPU count by patching ``_INLINE_CHUNKS``, and check that:

- pipelined and inline runs give equal counts and equal carried state
  (``snapshot()``), on a fused and a split L1 geometry, across carried
  state and a flush, and both equal the exact engine;
- concurrent pipelined calls on separate hierarchies, more threads
  than cores, still give the serial counts (the stages share only the
  module's ``_iota`` cache);
- a failure in either stage reaches the caller, even when the failing
  STLB stage leaves the L1 stage blocked on a full queue, and no thread
  outlives the call;
- the stage gets its own thread only with a CPU to spare per process.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.config import paper_x86, scaled_1m
from repro.tlb import engine
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.tlb.trace import compress_trace

PROFILES = {"scaled-1m": scaled_1m, "paper-x86": paper_x86}
"""A fused L1 (identical base and huge geometries) and a split one."""

HANG_SECONDS = 60.0
"""A simulate call still running after this long is taken as hung."""


class InjectedFailure(RuntimeError):
    pass


def _stream(seed: int, n: int):
    """A miss-heavy stream over a few thousand pages, both size
    classes, with a hot subset so that every level also hits."""
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 4096, size=n)
    hot = rng.integers(0, 64, size=n)
    pages = np.where(rng.random(n) < 0.3, hot, pages)
    keys = ((pages << 1) | (rng.random(n) < 0.25)).astype(np.int64)
    aids = rng.integers(0, 5, size=n).astype(np.uint8)
    return compress_trace(keys, aids)


def _traces():
    """Two calls of at least three chunks each."""
    n = 3 * engine._CHUNK + 4321
    return [_stream(1, n), _stream(2, n + 777)]


def _run(hierarchy, traces):
    """Two calls with a flush between; returns each call's counts and
    the carried state after the first call and at the end."""
    stats = TranslationStats()
    counts = []
    states = []
    for i, trace in enumerate(traces):
        hierarchy.simulate(trace, stats)
        counts.append(
            (
                stats.accesses.copy(),
                stats.l1_misses.copy(),
                stats.walks.copy(),
            )
        )
        states.append(hierarchy.snapshot())
        if i == 0:
            hierarchy.flush()
    return counts, states


def _stlb_threads(monkeypatch, hierarchy) -> list[str]:
    """Record the name of the thread each STLB pass runs on."""
    seen: list[str] = []
    original = hierarchy.l2.simulate

    def spy(keys):
        seen.append(threading.current_thread().name)
        return original(keys)

    monkeypatch.setattr(hierarchy.l2, "simulate", spy)
    return seen


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_pipelined_equals_inline_and_exact(profile, monkeypatch):
    config = PROFILES[profile]().tlb
    traces = _traces()
    main = threading.current_thread().name

    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 1 << 30)
    inline = BatchTranslationHierarchy(config)
    inline_threads = _stlb_threads(monkeypatch, inline)
    inline_counts, inline_states = _run(inline, traces)
    assert set(inline_threads) == {main}

    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 0)
    piped = BatchTranslationHierarchy(config)
    piped_threads = _stlb_threads(monkeypatch, piped)
    piped_counts, piped_states = _run(piped, traces)
    assert piped_threads and main not in piped_threads

    exact_counts, _ = _run(TranslationHierarchy(config), traces)
    for a, b, c in zip(inline_counts, piped_counts, exact_counts):
        for x, y, z in zip(a, b, c):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(x, z)
    # The stream really is miss-heavy at both levels.
    assert int(piped_counts[-1][2].sum()) > 0
    assert len(inline_states) == len(piped_states) == 2
    for a, b in zip(inline_states, piped_states):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_concurrent_pipelines_match_serial(monkeypatch):
    """Three callers, each with its own pipelined hierarchy, under a
    short switch interval and small chunks, so the stages interleave
    often and the ``_iota`` cache is grown while being read."""
    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 0)
    monkeypatch.setattr(engine, "_CHUNK", 1 << 12)
    config = scaled_1m().tlb
    traces = [_stream(10 + i, 40 * engine._CHUNK) for i in range(3)]
    expected = []
    for trace in traces:
        stats = TranslationStats()
        BatchTranslationHierarchy(config).simulate(trace, stats)
        expected.append((stats.l1_misses, stats.walks))

    monkeypatch.setattr(engine, "_iota_cache", engine._iota_cache[:0])
    results: list = [None] * len(traces)

    def call(i: int) -> None:
        stats = TranslationStats()
        BatchTranslationHierarchy(config).simulate(traces[i], stats)
        results[i] = (stats.l1_misses, stats.walks)

    callers = [
        threading.Thread(target=call, args=(i,), daemon=True)
        for i in range(len(traces))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(HANG_SECONDS)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for got, want in zip(results, expected):
        assert got is not None
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def _call_with_deadline(fn):
    """Run ``fn`` on a helper thread; return its exception, or fail the
    test if it has not returned within :data:`HANG_SECONDS`."""
    outcome: list[BaseException | None] = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)
        else:
            outcome.append(None)

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(HANG_SECONDS)
    assert not caller.is_alive(), "simulate hung"
    return outcome[0]


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_stlb_failure_with_full_queue_reaches_caller(profile, monkeypatch):
    """The STLB stage fails on the second queued chunk, but only once
    the L1 stage has filled the queue and blocks on the next put."""
    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 0)
    monkeypatch.setattr(engine, "_QUEUE_DEPTH", 1)
    hierarchy = BatchTranslationHierarchy(PROFILES[profile]().tlb)
    l1_calls = [0]
    for structure in hierarchy._l1_structures:
        original_l1 = structure.simulate

        def counting(keys, _original=original_l1):
            l1_calls[0] += 1
            return _original(keys)

        monkeypatch.setattr(structure, "simulate", counting)
    l1_per_chunk = len(hierarchy._l1_structures)
    stlb_calls = [0]
    original_l2 = hierarchy.l2.simulate

    def failing(keys):
        stlb_calls[0] += 1
        if stlb_calls[0] == 2:
            # Chunk 1 is here, chunk 2 fills the queue, and the L1
            # stage has finished chunk 3 and is blocked putting it.
            deadline = time.monotonic() + HANG_SECONDS / 2
            while l1_calls[0] < 4 * l1_per_chunk:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            time.sleep(0.05)
            raise InjectedFailure("stlb")
        return original_l2(keys)

    monkeypatch.setattr(hierarchy.l2, "simulate", failing)
    trace = _stream(3, 6 * engine._CHUNK)
    before = threading.active_count()
    stats = TranslationStats()
    error = _call_with_deadline(lambda: hierarchy.simulate(trace, stats))
    assert isinstance(error, InjectedFailure)
    # The L1 stage stopped feeding soon after the failure.
    assert l1_calls[0] < 6 * l1_per_chunk
    assert int(stats.l1_misses.sum()) == 0
    assert threading.active_count() == before


def test_l1_failure_joins_the_stlb_stage(monkeypatch):
    monkeypatch.setattr(engine, "_INLINE_CHUNKS", 0)
    hierarchy = BatchTranslationHierarchy(scaled_1m().tlb)
    calls = [0]
    original = hierarchy.l1_fused.simulate

    def failing(keys):
        calls[0] += 1
        if calls[0] == 3:
            raise InjectedFailure("l1")
        return original(keys)

    monkeypatch.setattr(hierarchy.l1_fused, "simulate", failing)
    trace = _stream(4, 4 * engine._CHUNK)
    before = threading.active_count()
    error = _call_with_deadline(
        lambda: hierarchy.simulate(trace, TranslationStats())
    )
    assert isinstance(error, InjectedFailure)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    ("cpus", "processes", "pipelined"),
    [(1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True), (4, 3, False)],
)
def test_pipeline_needs_a_spare_cpu_per_process(
    cpus, processes, pipelined, monkeypatch
):
    """The STLB stage gets its own thread only where each process that
    shares the CPUs (the local lease workers) has one to spare."""
    monkeypatch.setattr(engine, "_INLINE_CHUNKS", engine._INLINE_CHUNKS)
    monkeypatch.setattr(
        engine.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    engine.share_cpus(processes)
    assert (engine._INLINE_CHUNKS < sys.maxsize) is pipelined
