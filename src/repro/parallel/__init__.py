"""Multi-process fan-out for experiment sweeps.

Every figure is a batch of independent, deterministic experiment cells;
this package executes such a batch on a work-stealing process pool and
hands the results back to the single-owner parent for a deterministic
merge (see :mod:`repro.parallel.pool` and docs/performance.md).

The public entry point is ``ExperimentRunner(run_config=
RunConfig(workers=N))`` / ``ExperimentRunner.run_cells`` — figure
functions and the CLI (``--workers`` / ``REPRO_WORKERS``) route through
it; nothing here needs to be called directly.
"""

from .pool import WorkerContext, execute_cells, resolve_workers

__all__ = [
    "WorkerContext",
    "execute_cells",
    "resolve_workers",
]
