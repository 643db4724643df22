"""Local ``--workers N``: one batch on N lease workers over a private socket.

The coordinator and worker agent of ``--distribute`` / ``repro work``
(docs/service.md, "Local workers"), on this host.  A private temp dir
holds the coordinator's UNIX socket and the workers' journal shards and
is removed with the batch.  The workers are forked before the
coordinator's loop thread starts, so no fork copies a running thread;
:func:`~repro.dist.worker.work_loop` retries until the socket exists.
The figure process stays the single owner of the cache and the journal:
results come back aligned with ``cells`` for its spec-order merge.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from typing import Any, Sequence

from ..errors import DistError
from ..graph.datasets import load_dataset
from ..workloads.registry import workload_needs_weights
from .config import DistConfig
from .coordinator import DistCoordinator
from .worker import WorkerConfig, work_loop

LEASE_SECONDS = 2.0
"""Lease length; a worker renews every third of it, so a crashed
worker's cell is re-leased within about this long."""

MAX_LEASE_ATTEMPTS = 2
"""Grants per cell before it runs in this process instead."""

LOCAL_GRACE_SECONDS = 5.0
"""With no worker heard from for this long, the batch finishes here."""

POLL_SECONDS = 0.05
"""Worker poll interval while the socket is not up or no cell is free."""


def run_local_batch(
    runner: Any, cells: Sequence[tuple], workers: int
) -> list[Any]:
    """Execute ``cells`` on ``workers`` local lease workers; results
    align with ``cells``."""
    cells = list(cells)
    for workload, dataset, _policy, _scenario in cells:
        # Loaded once, here: forked workers inherit the dataset cache.
        load_dataset(dataset, weighted=workload_needs_weights(workload))
    tmp = tempfile.mkdtemp(prefix="repro-workers-")
    socket_path = os.path.join(tmp, "coordinator.sock")
    context = multiprocessing.get_context()
    procs = [
        context.Process(
            target=work_loop,
            args=(WorkerConfig(
                connect=socket_path,
                journal_path=os.path.join(tmp, f"w{i}.jsonl"),
                worker_id=f"local{i}",
                poll_interval=POLL_SECONDS,
                idle_exit_seconds=LOCAL_GRACE_SECONDS,
            ),),
            daemon=True,
        )
        for i in range(max(1, min(workers, len(cells))))
    ]
    coordinator = DistCoordinator(runner, DistConfig(
        socket_path=socket_path,
        lease_seconds=LEASE_SECONDS,
        max_lease_attempts=MAX_LEASE_ATTEMPTS,
        local_grace_seconds=LOCAL_GRACE_SECONDS,
    ))
    try:
        for proc in procs:
            proc.start()
        try:
            coordinator.start()
        except DistError:
            # No socket (say, TMPDIR too long for a UNIX path): serial.
            return [runner._execute_cell(*cell) for cell in cells]
        return coordinator.execute_batch(cells)
    finally:
        # Every cell is settled (or the batch failed): a worker still
        # alive holds nothing worth waiting for, wedged or idle.
        for proc in procs:
            if proc.pid is not None:
                proc.terminate()
                proc.join()
        coordinator.stop()
        shutil.rmtree(tmp, ignore_errors=True)
