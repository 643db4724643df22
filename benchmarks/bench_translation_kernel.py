"""Translation-kernel microbenchmark: exact vs batch engine, per cell.

Captures the TLB traces (and flush boundaries) of representative
experiment cells once, then replays the identical trace sequence
through a fresh exact hierarchy and a fresh batch hierarchy, timing
only the ``simulate`` calls.  The exact engine is single-threaded; the
batch engine runs its STLB pass on a second thread on long streams when
more than one CPU is usable, so its seconds depend on the CPU count
the entry records as ``cpus``.

Cells (full mode):

- ``road-m/pagerank/paper-x86/hugetlb-all`` — the million-vertex
  scale-tier graph whose ~40MB footprint fits the paper machine's L1
  TLB reach when fully hugetlb-backed.  The batch engine's closed-sets
  fast path decides the whole stream in a few table passes; this is
  the >=10x cell.
- ``kron-m/pagerank/scaled-1m/none`` — the miss-heavy million-vertex
  cell on the scaled-1m profile, exercising the sort-based set-wise
  decision procedure (typically 3-4x on one core).

``REPRO_BENCH_KERNEL=quick`` swaps in a small synthetic pair of cells
(seconds, for CI smoke); the >=10x target is only asserted in full
mode outside CI, but the measured ratios are always recorded under
``translation_engine`` in BENCH_sweep.json.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np

from repro.config import paper_x86, scaled_1m, tiny
from repro.core.plan import PlacementPlan
from repro.graph.datasets import clear_dataset_cache, load_dataset
from repro.machine import machine as machine_mod
from repro.tlb.engine import BatchTranslationHierarchy
from repro.tlb.hierarchy import TranslationHierarchy, TranslationStats
from repro.workloads.registry import create_workload

QUICK = os.environ.get("REPRO_BENCH_KERNEL", "") == "quick"
TARGET_SPEEDUP = 10.0


def _capture_cell(config, dataset, workload_kwargs, plan, hugetlb_regions):
    """Run one cell under the exact engine, recording every simulated
    trace and flush in order."""
    events: list[tuple] = []

    class Recorder(TranslationHierarchy):
        def simulate(self, trace, stats):
            events.append(("trace", trace))
            super().simulate(trace, stats)

        def flush(self):
            events.append(("flush",))
            super().flush()

    graph = load_dataset(dataset).graph
    workload = create_workload("pagerank", graph, **workload_kwargs)
    with mock.patch.object(
        machine_mod, "make_hierarchy", lambda engine, cfg: Recorder(cfg)
    ):
        m = machine_mod.Machine(config)
        if hugetlb_regions:
            m.reserve_hugetlb(hugetlb_regions)
        m.run(workload, plan=plan, dataset=dataset)
    return events


def _replay(engine_cls, config, events, reps=1):
    """Replay a captured event sequence through a fresh hierarchy per
    rep; returns (stats of the first rep, best-of-reps sim_seconds)."""
    stats = None
    best = None
    for _ in range(max(reps, 1)):
        hierarchy = engine_cls(config.tlb)
        rep_stats = TranslationStats()
        sim_seconds = 0.0
        for event in events:
            if event[0] == "flush":
                hierarchy.flush()
                continue
            start = time.perf_counter()
            hierarchy.simulate(event[1], rep_stats)
            sim_seconds += time.perf_counter() - start
        if stats is None:
            stats = rep_stats
        best = sim_seconds if best is None else min(best, sim_seconds)
    return stats, best


def _cells():
    all_arrays = {i: 1.0 for i in range(5)}
    if QUICK:
        return [
            (
                "test-small/pagerank/tiny/hugetlb-all",
                tiny(),
                "test-small",
                {"max_iterations": 3},
                PlacementPlan(
                    hugetlb_fractions=all_arrays, label="hugetlb-all"
                ),
                16,
            ),
            (
                "test-small/pagerank/tiny/none",
                tiny(),
                "test-small",
                {"max_iterations": 3},
                PlacementPlan.none(),
                0,
            ),
        ]
    return [
        (
            "road-m/pagerank/paper-x86/hugetlb-all",
            paper_x86(),
            "road-m",
            {"max_iterations": 2},
            PlacementPlan(hugetlb_fractions=all_arrays, label="hugetlb-all"),
            64,
        ),
        (
            "kron-m/pagerank/scaled-1m/none",
            scaled_1m(),
            "kron-m",
            {"max_iterations": 2},
            PlacementPlan.none(),
            0,
        ),
    ]


def test_translation_kernel(sweep_record):
    results: dict[str, dict] = {}
    for label, config, dataset, wl_kwargs, plan, hugetlb in _cells():
        events = _capture_cell(config, dataset, wl_kwargs, plan, hugetlb)
        lookups = sum(
            e[1].lookup_view()[0].size for e in events if e[0] == "trace"
        )
        reps = 1 if QUICK else 2
        exact_stats, exact_seconds = _replay(
            TranslationHierarchy, config, events, reps=reps
        )
        batch_stats, batch_seconds = _replay(
            BatchTranslationHierarchy, config, events, reps=reps + 1
        )
        identical = (
            np.array_equal(exact_stats.accesses, batch_stats.accesses)
            and np.array_equal(exact_stats.l1_misses, batch_stats.l1_misses)
            and np.array_equal(exact_stats.walks, batch_stats.walks)
        )
        # Equivalence is a hard invariant, never a soft metric.
        assert identical, (
            f"{label}: batch engine diverged from exact "
            f"(l1m {batch_stats.l1_misses.tolist()} vs "
            f"{exact_stats.l1_misses.tolist()})"
        )
        speedup = exact_seconds / batch_seconds if batch_seconds else 0.0
        results[label] = {
            "lookups": lookups,
            "exact_seconds": exact_seconds,
            "batch_seconds": batch_seconds,
            "exact_ns_per_lookup": 1e9 * exact_seconds / max(lookups, 1),
            "batch_ns_per_lookup": 1e9 * batch_seconds / max(lookups, 1),
            "speedup": speedup,
            "identical": identical,
        }
        print(
            f"\n{label}: {lookups} lookups, exact {exact_seconds:.3f}s, "
            f"batch {batch_seconds:.3f}s -> {speedup:.2f}x"
        )
        # Million-vertex traces are hundreds of MB; drop each cell's
        # graph and traces before capturing the next.
        del events
        clear_dataset_cache()

    max_speedup = max(r["speedup"] for r in results.values())
    sweep_record(
        "translation_engine",
        {
            "mode": "quick" if QUICK else "full",
            "cpus": os.cpu_count() or 1,
            "target_speedup": TARGET_SPEEDUP,
            "target_met": max_speedup >= TARGET_SPEEDUP,
            "max_speedup": max_speedup,
            "cells": results,
        },
    )
    if not QUICK and not os.environ.get("CI"):
        # The >=10x contract is a local-bench gate (CI runners are too
        # variable to gate on raw timing); the recorded entry carries
        # the measured ratio either way.
        assert max_speedup >= TARGET_SPEEDUP, (
            f"expected a >={TARGET_SPEEDUP}x cell, best was "
            f"{max_speedup:.2f}x"
        )
