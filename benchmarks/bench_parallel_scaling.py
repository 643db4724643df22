"""``--workers`` scaling: serial vs local lease workers on a reference
figure batch, with output byte-identity verification.

The batch is fig07 (allocation order under pressure) over two workloads,
which yields a handful of independent multi-second cells — exactly the
shape local fan-out is built for.  The speedup threshold (>=1.8x at 4
workers) is enforced only on hosts with at least 2 CPUs and outside CI:
the CI ``parallel-smoke`` job runs this file as a correctness smoke
test, and a single-core runner cannot demonstrate scaling.

Environment knobs: ``REPRO_BENCH_SCALING_WORKERS`` (default 4) and
``REPRO_BENCH_SCALING_DATASETS`` (default ``kron-s`` — cells around a
second each, so the workers' fork and lease overhead is amortized; CI smoke
passes ``test-small`` for speed).  Only a default-dataset run is written
to ``parallel_scaling`` in ``BENCH_sweep.json``; any other run prints its
record instead.

Every dataset is loaded before either timed run, so neither side pays
for the graph build (the workers inherit the loaded cache).
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import figures
from repro.experiments.harness import ExperimentRunner, resolve_workers
from repro.experiments.reporting import geomean
from repro.experiments.runconfig import RunConfig
from repro.graph.datasets import load_dataset
from repro.workloads.registry import workload_needs_weights

SCALING_WORKLOADS = ("bfs", "pagerank")
DEFAULT_DATASETS = ("kron-s",)
SCALING_DATASETS = tuple(
    part.strip()
    for part in os.environ.get(
        "REPRO_BENCH_SCALING_DATASETS", ",".join(DEFAULT_DATASETS)
    ).split(",")
    if part.strip()
)
SCALING_WORKERS = int(os.environ.get("REPRO_BENCH_SCALING_WORKERS", "4"))
SPEEDUP_THRESHOLD = 1.8


def run_batch(runner: ExperimentRunner):
    return figures.fig07_pressure_alloc_order(
        runner, workloads=SCALING_WORKLOADS, datasets=SCALING_DATASETS
    )


def test_parallel_scaling(sweep_record):
    for workload in SCALING_WORKLOADS:
        for dataset in SCALING_DATASETS:
            load_dataset(dataset, weighted=workload_needs_weights(workload))

    # Serial reference, timing each simulated cell individually.
    serial = ExperimentRunner(run_config=RunConfig(workers=1))
    durations: list[float] = []
    original = serial._execute_cell

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    serial._execute_cell = timed
    start = time.perf_counter()
    reference = run_batch(serial)
    serial_seconds = time.perf_counter() - start

    parallel = ExperimentRunner(
        run_config=RunConfig(workers=SCALING_WORKERS)
    )
    start = time.perf_counter()
    result = run_batch(parallel)
    parallel_seconds = time.perf_counter() - start

    # Determinism before speed: the parallel batch must be
    # byte-identical to the serial one.
    assert result.to_json() == reference.to_json()

    speedup = (
        serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
    )
    effective_workers = resolve_workers(SCALING_WORKERS)
    # A run clamped to one worker never fanned out: its
    # "speedup" is serial-vs-serial noise, and downstream consumers of
    # BENCH_sweep.json must not read it as a scaling measurement.
    valid_scaling = effective_workers > 1
    record = {
        "datasets": list(SCALING_DATASETS),
        "workers": SCALING_WORKERS,
        "workers_effective": effective_workers,
        "clamped": effective_workers != SCALING_WORKERS,
        "valid_scaling": valid_scaling,
        "cells_simulated": len(durations),
        "geomean_cell_seconds": geomean(durations) if durations else None,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "cpus": os.cpu_count() or 1,
    }
    if SCALING_DATASETS == DEFAULT_DATASETS:
        sweep_record("parallel_scaling", record)
    else:
        print("parallel_scaling (not recorded):", json.dumps(record))
    if not valid_scaling:
        print(
            "NOTE: --workers clamped to 1 effective worker on this host -- "
            "speedup recorded as serial-vs-serial noise, "
            "valid_scaling=false"
        )

    cpus = os.cpu_count() or 1
    if effective_workers == 1:
        # The fan-out clamped to the serial path (1 CPU): there is no
        # scaling to measure, only the byte-identity check above.  A
        # clamped run is *labeled* (valid_scaling=false, NOTE below) —
        # never gated on timing, which is pure noise at 1 worker.
        pass
    elif cpus >= 2 and not os.environ.get("CI"):
        # The scaling guard is a local-bench contract, not a CI one: CI
        # runners are too variable to gate on.
        assert speedup >= SPEEDUP_THRESHOLD, (
            f"expected >={SPEEDUP_THRESHOLD}x at {SCALING_WORKERS} workers "
            f"on {cpus} CPUs, measured {speedup:.2f}x"
        )
