"""Local ``--workers N``: one batch on N lease workers over a private socket.

The coordinator and worker agent of ``--distribute`` / ``repro work``
(docs/service.md, "Local workers"), on this host.  A private temp dir
holds the coordinator's UNIX socket and the workers' journal shards and
is removed with the batch, also when SIGTERM ends the figure process
(on its main thread the signal raises ``SystemExit`` while the batch
runs, so the cleanup runs).  The workers are forked before the
coordinator's loop thread starts, so no fork copies a running thread;
:func:`~repro.dist.worker.work_loop` retries until the socket exists.
The figure process stays the single owner of the cache and the journal:
results come back aligned with ``cells`` for its spec-order merge.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
from typing import Any, Sequence

from ..errors import DistError
from ..graph.datasets import load_dataset
from ..tlb.engine import share_cpus
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


def _local_worker(config: WorkerConfig, siblings: int) -> None:
    # terminate() is how the batch stops a wedged worker, so a SIGTERM
    # handler the fork copied from the caller must not outlive it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # With the CPUs shared among the workers, a second thread per
    # worker for the STLB stage only competes with the other workers.
    share_cpus(siblings)
    work_loop(config)


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


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
    count = max(1, min(workers, len(cells)))
    procs = [
        context.Process(
            target=_local_worker,
            args=(WorkerConfig(
                connect=socket_path,
                journal_path=os.path.join(tmp, f"w{i}.jsonl"),
                worker_id=f"local{i}",
                poll_interval=POLL_SECONDS,
                idle_exit_seconds=LOCAL_GRACE_SECONDS,
            ), count),
            daemon=True,
        )
        for i in range(count)
    ]
    coordinator = DistCoordinator(runner, DistConfig(
        socket_path=socket_path,
        lease_seconds=LEASE_SECONDS,
        max_lease_attempts=MAX_LEASE_ATTEMPTS,
        local_grace_seconds=LOCAL_GRACE_SECONDS,
    ))
    # Only the main thread may set a handler (the chaos harness runs
    # figures on another).
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.getsignal(signal.SIGTERM) if on_main else None
    try:
        for proc in procs:
            proc.start()
        if on_main:
            signal.signal(signal.SIGTERM, _exit_on_sigterm)
        try:
            coordinator.start()
        except DistError:
            # No socket (say, TMPDIR too long for a UNIX path): serial.
            return [runner._execute_cell(*cell) for cell in cells]
        return coordinator.execute_batch(cells)
    finally:
        if on_main:
            # Ignored until the dir is gone, so a second SIGTERM cannot
            # cut the cleanup short; then the caller's handler is back.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        # Every cell is settled (or the batch failed): a worker still
        # alive holds nothing worth waiting for, wedged or idle.
        for proc in procs:
            if proc.pid is not None:
                proc.terminate()
                proc.join()
        coordinator.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        if on_main:
            signal.signal(
                signal.SIGTERM,
                signal.SIG_DFL if previous is None else previous,
            )
