"""The experiment runner: one (workload, dataset, policy, scenario) cell
per call, on a freshly configured machine.

Every cell is deterministic, so results are cached by cell key — figures
share baselines (e.g. the 4KB fresh-boot run) without re-simulating.

The runner reproduces the paper's measurement methodology (§3.1,
Appendix):

- the machine is configured (memhog → background noise → frag) before
  the application starts, and setup-time kernel work is not charged;
- the input file is staged through the page cache (remote tmpfs by
  default, local node to reproduce §4.3's interference);
- DBG preprocessing happens before the measured run but its cost is
  recorded and charged to kernel time, as the paper does (§5.1.2).

Resilience (see ``docs/faults.md``): when a :class:`~repro.faults.spec
.FaultPlan` is armed — or a cell legitimately runs out of memory or
exceeds its access budget — the runner degrades gracefully instead of
aborting the whole figure batch:

- injected faults are retried up to ``run_config.retries`` times with a
  deterministic simulated backoff that is charged to the surviving
  run's kernel time;
- exhausted retries, out-of-memory and budget overruns are captured as
  a structured :class:`CellFailure` (site attribution included), which
  is cached like any result so the batch completes with partial data;
- deterministic failures (OOM, budget) are *not* retried — replaying an
  identical simulation cannot change the outcome.

Each cell gets its own injector seeded from the plan alone, so a cell's
fault sequence does not depend on batch order, and cells the plan never
touches stay bit-for-bit identical to a fault-free run.

Durability (see ``docs/checkpointing.md``): attach a
:class:`~repro.runstate.journal.RunJournal` and every cell outcome is
recorded crash-safely; with ``resume=True`` cells whose spec
fingerprint matches a completed journal record are reconstructed from
the journal instead of re-simulated, so an interrupted sweep picks up
where it left off.  A :class:`~repro.runstate.watchdog.CellWatchdog`
(``cell_cycles`` / ``cell_deadline_seconds``) bounds each cell by
simulated-cycle budget and wall-clock deadline, absorbing hung or
runaway cells as ``FAILED(watchdog)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from ..analysis.sanitizer import sanitizer_enabled
from ..config import MachineConfig, scaled
from ..errors import (
    CellBudgetExceededError,
    ExperimentError,
    InjectedFaultError,
    OutOfMemoryError,
    WatchdogExpiredError,
)
from ..faults.injector import FaultInjector
from ..faults.sites import FaultSite
from ..faults.spec import FaultPlan
from ..graph.csr import CsrGraph
from ..graph.datasets import EVALUATION_DATASETS, load_dataset
from ..graph.io import on_disk_bytes
from ..graph.reorder import DBG_COST, ORDERINGS
from ..machine.machine import Machine
from ..machine.metrics import RunMetrics
from ..machine.replay import ReplayMemo
from ..obs.tracer import MetricsRegistry, Tracer
from ..runstate.serialize import spec_fingerprint
from ..runstate.watchdog import CellWatchdog
from ..workloads.layout import MemoryLayout
from ..workloads.registry import create_workload, workload_needs_weights
from .policies import Policy
from .runconfig import RunConfig
from .scenarios import Scenario

RETRY_BACKOFF_BASE_CYCLES = 1_000_000
"""Simulated backoff charged for the first retry; doubles per attempt.

Sized like a long direct-reclaim stall: large enough to be visible in
kernel time (a retried cell is measurably slower), small enough not to
drown the phenomenon being measured."""


def retry_backoff_cycles(attempt: int) -> int:
    """Deterministic exponential backoff for the given 1-based failed
    attempt: base, 2x base, 4x base, ..."""
    return RETRY_BACKOFF_BASE_CYCLES * (2 ** (attempt - 1))


@dataclass
class CellFailure:
    """Structured record of one cell that could not produce metrics.

    Stored in the cell cache and returned where a
    :class:`~repro.machine.metrics.RunMetrics` would normally go.  A
    figure reads its batch's results and puts the failure itself into
    every value derived from a failed cell
    (:func:`~repro.experiments.figures.derive`), where it renders as
    ``FAILED(site)``.  It carries no metrics: reading one raises
    ``AttributeError``, and comparing it (``failure > 0.9``) raises
    ``TypeError``.
    """

    workload: str
    dataset: str
    policy: str
    scenario: str
    error: str
    message: str
    attempts: int = 1
    site: Optional[FaultSite] = None
    fault_hit: Optional[int] = None

    ok = False
    """False — counterpart of ``RunMetrics.ok``."""

    @property
    def label(self) -> str:
        """The explicit marker rendered into tables: ``FAILED(site)``."""
        cause = self.site.value if self.site is not None else self.error
        return f"FAILED({cause})"

    def speedup_over(self, baseline) -> "CellFailure":
        """A failed cell has no speedup; propagate the failure."""
        return baseline if isinstance(baseline, CellFailure) else self

    def describe(self) -> str:
        """Multi-line human-readable account (CLI output)."""
        lines = [
            f"{self.label}: {self.workload} on {self.dataset} "
            f"| policy={self.policy} | scenario={self.scenario}",
            f"  error    : {self.error}",
            f"  message  : {self.message}",
            f"  attempts : {self.attempts}",
        ]
        if self.site is not None:
            lines.append(
                f"  site     : {self.site.value} (fire #{self.fault_hit})"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.label


CellResult = Union[RunMetrics, CellFailure]
"""What :meth:`ExperimentRunner.run_cell` returns: metrics, or — with
graceful degradation — a structured failure."""


def resolve_workers(workers: int) -> int:
    """Normalize a worker-count knob: ``0`` means one per CPU, and any
    request is clamped to the CPUs actually available.

    The clamp is what keeps the 1-CPU regression recorded in
    ``BENCH_sweep.json`` (0.82x vs serial with ``--workers 4`` on one
    core) from recurring: oversubscribing cores buys pure dispatch
    overhead, so ``--workers 4`` on a 1-CPU host resolves to ``1`` and
    takes the serial path.  Callers that need to know a clamp happened
    compare against their requested value and emit ``pool.autosize``.
    """
    cpus = os.cpu_count() or 1
    if workers == 0:
        return cpus
    return min(max(1, workers), cpus)


def run_cells(
    cells: Sequence[tuple[str, str, Policy, Scenario]],
    config: Optional[MachineConfig] = None,
    run_config: Optional["RunConfig"] = None,
) -> list[CellResult]:
    """One-shot batch entry point: build a runner, run ``cells``.

    Convenience wrapper for scripts that want results without holding a
    runner; use :class:`ExperimentRunner` directly when you need the
    cache, ``failures`` or ``trace_log`` afterwards.
    """
    runner = ExperimentRunner(config=config, run_config=run_config)
    return runner.run_cells(cells)


class ExperimentRunner:
    """Runs and caches experiment cells on one machine profile.

    Execution policy — parallelism, journaling, retries, budgets,
    watchdogs, fault injection, tracing — lives in one validated
    :class:`~repro.experiments.runconfig.RunConfig`::

        runner = ExperimentRunner(run_config=RunConfig(workers=4,
                                                       trace=True))

    Read knobs as ``runner.run_config.retries``; change them between
    batches with ``runner.run_config = runner.run_config.replace(...)``
    (re-validated).  :meth:`worker_run_config` is the config every
    worker process — local ``--workers`` or ``repro work`` — executes
    cells under.

    Attributes:
        config: machine profile (default SCALED).
        run_config: the execution policy (see :class:`RunConfig`).
        pagerank_iterations: iteration cap for PR cells, keeping trace
            volume proportional across datasets (the paper runs to
            convergence on real hardware; the cap does not change which
            policy wins, only absolute cycle counts).
        datasets: dataset names used by the figure functions.
        capture_failures: when True (default), failed cells become
            cached :class:`CellFailure` results; when False the error
            propagates after retries (strict mode for tests/debugging).
        failures: structured records of every captured cell failure.
        trace_log: with ``run_config.trace``, one entry per newly
            resolved traced cell — ``{"cell": coords, "events": [...],
            "obs_metrics": {...}}`` — appended in spec order (identical
            bytes serial or parallel; see docs/observability.md).
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        run_config: Optional[RunConfig] = None,
        *,
        pagerank_iterations: int = 3,
        datasets: tuple[str, ...] = EVALUATION_DATASETS,
        capture_failures: bool = True,
    ) -> None:
        self.config = config if config is not None else scaled()
        self.pagerank_iterations = pagerank_iterations
        self.datasets = datasets
        self.capture_failures = capture_failures
        self.run_config = (
            run_config if run_config is not None else RunConfig()
        )
        self.failures: list[CellFailure] = []
        self.trace_log: list[dict[str, Any]] = []
        self.metrics = MetricsRegistry()
        """Always-on resilience counters (``harness.retries``,
        ``harness.cell_failures``, ``harness.watchdog_kills``,
        ``pool.autosize``), aggregated across every executed cell."""
        self._harness_clock = 0
        self.harness_tracer: Optional[Tracer] = None
        if self.run_config.trace:
            # Harness-level events (retries, absorbed failures, pool
            # sizing) are clocked by a logical resolved-cell counter —
            # identical serial or parallel, never a wall clock.
            self.harness_tracer = Tracer(clock=lambda: self._harness_clock)
        self._autosize_emitted = False
        self.dist_executor: Optional[
            Callable[[list[tuple]], list[CellResult]]
        ] = None
        """When set (``repro figure --distribute``), batches route
        through this callable — e.g. :meth:`repro.dist.DistCoordinator
        .execute_batch` — instead of a local lease batch.  It receives
        the not-yet-known cells and must return results aligned with
        them; journaling, caching and trace merging stay in this
        process, in spec order, exactly like the ``--workers`` path."""
        self._cache: dict[tuple, CellResult] = {}
        self._graph_cache: dict[
            tuple[str, str, bool], tuple[CsrGraph, int]
        ] = {}
        self._perm_cache: dict[tuple[str, str], Any] = {}
        self._replay = ReplayMemo()

    @property
    def effective_fault_plan(self) -> Optional[FaultPlan]:
        """The armed plan: run-config level first, else the config's."""
        if self.run_config.faults is not None:
            return self.run_config.faults
        return self.config.fault_plan

    def worker_run_config(self) -> RunConfig:
        """The run config a worker process executes cells under:
        :meth:`RunConfig.worker_view` (the parent keeps the journal and
        the fan-out) with the effective fault plan and the ambient
        sanitizer pinned — a profile-level plan or ``REPRO_SANITIZE``
        in this process reaches every worker, whatever its own profile
        lookup or environment says."""
        run_config = self.run_config.worker_view()
        if run_config.faults is None:
            run_config = run_config.replace(faults=self.effective_fault_plan)
        if not run_config.sanitize and sanitizer_enabled():
            run_config = run_config.replace(sanitize=True)
        return run_config

    def run_cell(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
    ) -> CellResult:
        """Simulate one cell; cached on repeat calls.

        Returns :class:`RunMetrics`, or a :class:`CellFailure` when the
        cell fails and ``capture_failures`` is set.

        Raises:
            ExperimentError: on configuration mistakes (always), or any
                simulation failure when ``capture_failures`` is False.
        """
        key = self._cell_key(workload_name, dataset_name, policy, scenario)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        journal = self.run_config.journal
        spec = None
        cell_coords = None
        if journal is not None:
            spec = self.cell_spec(workload_name, dataset_name, policy, scenario)
            cell_coords = self._cell_coords(
                workload_name, dataset_name, policy, scenario
            )
            if self.run_config.resume:
                recorded = journal.result(spec)
                if recorded is not None:
                    self._cache[key] = recorded
                    self._record_trace(
                        (workload_name, dataset_name, policy, scenario),
                        recorded,
                    )
                    return recorded
            journal.begin(spec, cell_coords)

        result = self._execute_cell(workload_name, dataset_name, policy, scenario)
        if isinstance(result, CellFailure):
            self.failures.append(result)

        if journal is not None:
            # Journal append failures propagate: a sweep whose journal
            # cannot be written must crash (and later resume), not
            # silently continue unjournaled.
            journal.record_result(spec, cell_coords, result)
        self._cache[key] = result
        self._note_result(
            (workload_name, dataset_name, policy, scenario), result
        )
        self._record_trace(
            (workload_name, dataset_name, policy, scenario), result
        )
        return result

    def _note_result(
        self,
        cell: tuple[str, str, Policy, Scenario],
        result: CellResult,
    ) -> None:
        """Fold one *executed* cell's resilience outcome into the
        runner's metrics (and, when tracing, the harness event stream).

        Called once per execution — never for cache hits or journal
        resume reconstructions, whose retries were counted by the run
        that performed them.  Invoked in spec order on both the serial
        and the parallel path, so harness events are byte-identical
        however the batch was executed.
        """
        self._harness_clock += 1
        retries = max(0, int(getattr(result, "attempts", 1) or 1) - 1)
        label = "{}/{}/{}/{}".format(
            cell[0], cell[1], cell[2].name, cell[3].name
        )
        metrics = self.metrics
        tracer = self.harness_tracer
        if retries:
            metrics.count("harness.retries", retries)
            if tracer is not None:
                tracer.emit("harness.retry", cell=label, retries=retries)
        if isinstance(result, CellFailure):
            metrics.count("harness.cell_failures")
            if tracer is not None:
                tracer.emit(
                    "harness.cell_failure",
                    cell=label,
                    cause=result.error,
                    attempts=result.attempts,
                )
            if result.error == "watchdog":
                metrics.count("harness.watchdog_kills")
                if tracer is not None:
                    tracer.emit("harness.watchdog_kill", cell=label)

    def harness_trace_entry(self) -> Optional[dict[str, Any]]:
        """The harness's own pseudo-cell trace entry, or ``None``.

        Harness events (retries, failures, pool sizing) belong to the
        sweep, not to any one cell, so they ride in a synthetic cell
        labelled ``harness/-/-/-`` that the exporters and ``repro trace
        summary`` handle like any other.  Draining resets the tracer, so
        call this once, when flushing the trace.
        """
        tracer = self.harness_tracer
        if tracer is None:
            return None
        snapshot = tracer.metrics.snapshot()
        events = tracer.drain()
        if not events:
            return None
        return {
            "cell": {
                "workload": "harness",
                "dataset": "-",
                "policy": "-",
                "scenario": "-",
            },
            "events": events,
            "obs_metrics": snapshot,
        }

    def _record_trace(
        self,
        cell: tuple[str, str, Policy, Scenario],
        result: CellResult,
    ) -> None:
        """Append one newly resolved cell's events to ``trace_log``.

        Called exactly once per cache insertion (never on cache hits),
        and only in spec order — the parallel merge defers to a final
        in-order pass — so the accumulated log is byte-identical
        however the batch was executed."""
        if not self.run_config.trace or not result.ok:
            return
        events = result.trace
        if not events:
            return
        self.trace_log.append(
            {
                "cell": self._cell_coords(*cell),
                "events": events,
                "obs_metrics": result.obs_metrics,
            }
        )

    def run_cells(
        self, cells: Sequence[tuple[str, str, Policy, Scenario]]
    ) -> list[CellResult]:
        """Run a batch of cells, returning results aligned with ``cells``.

        With ``workers <= 1`` this is exactly ``[run_cell(*c) for c in
        cells]`` — the bit-for-bit serial path.  With ``workers > 1``
        the not-yet-known cells are executed by N local lease workers
        (:func:`repro.dist.localbatch.run_local_batch`) and merged
        deterministically: the parent stays the single owner of the
        cell cache and the journal, and journal records,
        failure-list entries and cached results are committed in *spec
        order* (the order of ``cells``), never completion order — so
        journal bytes and figure output are identical to a serial run.

        Strict mode (``capture_failures=False``) falls back to the
        serial path: it exists to surface the original exception object
        at the failing cell, which a process boundary cannot preserve.
        """
        cells = list(cells)
        if len(cells) > 1 and self.capture_failures:
            if self.dist_executor is not None:
                # Distributed dispatch is orthogonal to the CPU clamp: a
                # 1-CPU coordinator host still shards across remote workers.
                return self._run_cells_parallel(cells, self.dist_executor)
            workers = self._resolve_workers()
            if workers > 1:
                from ..dist import localbatch

                return self._run_cells_parallel(
                    cells,
                    lambda batch: localbatch.run_local_batch(
                        self, batch, workers
                    ),
                )
        return [self.run_cell(*cell) for cell in cells]

    def _resolve_workers(self) -> int:
        """``run_config.workers`` clamped to the CPUs; a clamp is counted
        and traced (once) as ``pool.autosize``."""
        requested = self.run_config.workers
        workers = resolve_workers(requested)
        if requested > 0 and workers < requested:
            self.metrics.count("pool.autosize")
            if not self._autosize_emitted:
                self._autosize_emitted = True
                tracer = self.harness_tracer
                if tracer is not None:
                    tracer.emit(
                        "pool.autosize",
                        requested=requested,
                        effective=workers,
                        cpus=os.cpu_count() or 1,
                    )
        return workers

    def _run_cells_parallel(
        self,
        cells: list[tuple[str, str, Policy, Scenario]],
        execute: Callable[[list[tuple]], list[CellResult]],
    ) -> list[CellResult]:
        journal = self.run_config.journal
        results: list[Optional[CellResult]] = [None] * len(cells)
        keys = [self._cell_key(*cell) for cell in cells]
        dispatch: list[int] = []
        dispatched_keys: set = set()
        # Keys resolved by *this* batch (resume hits and executions, not
        # pre-existing cache entries): their traces are appended in one
        # final spec-order pass, matching the serial interleaving.
        fresh_keys: set = set()
        for i, cell in enumerate(cells):
            key = keys[i]
            if key in dispatched_keys:
                continue  # duplicate of a dispatched cell; merged below
            cached = self._cache.get(key)
            if cached is not None:
                results[i] = cached
                continue
            if journal is not None and self.run_config.resume:
                recorded = journal.result(self.cell_spec(*cell))
                if recorded is not None:
                    # Resume hit: cached without journal writes, exactly
                    # like the serial path — never dispatched.
                    self._cache[key] = recorded
                    results[i] = recorded
                    fresh_keys.add(key)
                    continue
            dispatched_keys.add(key)
            dispatch.append(i)

        executed: dict[int, CellResult] = {}
        if dispatch:
            outcomes = execute([cells[i] for i in dispatch])
            executed = dict(zip(dispatch, outcomes))

        # Deterministic merge, in spec order: journal begin/result pairs,
        # failure-list entries and cache insertions replay exactly the
        # sequence a serial run would have produced.
        for i, cell in enumerate(cells):
            if i in executed:
                result = executed[i]
                if journal is not None:
                    spec = self.cell_spec(*cell)
                    coords = self._cell_coords(*cell)
                    journal.begin(spec, coords)
                    journal.record_result(spec, coords, result)
                if isinstance(result, CellFailure):
                    self.failures.append(result)
                self._cache[keys[i]] = result
                self._note_result(cell, result)
                results[i] = result
                fresh_keys.add(keys[i])
            elif results[i] is None:
                # Duplicate of a dispatched cell: its first occurrence
                # (earlier in spec order) has already filled the cache.
                results[i] = self._cache[keys[i]]
        if self.run_config.trace and fresh_keys:
            # Trace append runs as one in-order pass over the batch: a
            # serial run interleaves resume hits and executions in cell
            # order, so the parallel merge must too (first occurrence of
            # each newly resolved key only).
            appended: set = set()
            for i, cell in enumerate(cells):
                key = keys[i]
                if key in fresh_keys and key not in appended:
                    appended.add(key)
                    self._record_trace(cell, self._cache[key])
        return results  # type: ignore[return-value]

    def _cell_key(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
    ) -> tuple:
        """The in-memory cache identity of one cell (everything that can
        change its simulated outcome)."""
        return (
            workload_name,
            dataset_name,
            policy.name,
            policy.plan.order.value,
            tuple(sorted(policy.plan.advise_fractions.items())),
            tuple(sorted(policy.plan.hugetlb_fractions.items())),
            policy.plan.reorder,
            scenario,
            self.pagerank_iterations,
            self.config.name,
            self.effective_fault_plan,
            self.run_config.retries,
            self.run_config.cell_budget,
            self.run_config.cell_cycles,
        )

    @staticmethod
    def _cell_coords(
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
    ) -> dict[str, str]:
        return {
            "workload": workload_name,
            "dataset": dataset_name,
            "policy": policy.name,
            "scenario": scenario.name,
        }

    def _execute_cell(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
    ) -> CellResult:
        """Simulate one cell (retries, fault injection, capture) without
        touching the cache, the journal or ``failures`` — the part of
        :meth:`run_cell` that is safe to run in a worker process or on
        a batch executor's behalf."""
        plan = self.effective_fault_plan
        graph, preprocess_accesses = self._prepared_graph(
            dataset_name, policy.plan.reorder,
            weighted=workload_needs_weights(workload_name),
        )
        # One injector for all attempts of this cell: counters persist
        # across retries, so transient (max_fires-capped) glitches are
        # survived while wear-out triggers keep failing.
        injector = (
            plan.make_injector()
            if plan is not None and plan.enabled
            else None
        )

        attempts = 0
        retry_cycles = 0
        while True:
            attempts += 1
            try:
                metrics = self._simulate_cell(
                    workload_name, dataset_name, policy, scenario,
                    graph, preprocess_accesses, injector,
                )
            except InjectedFaultError as error:
                if attempts <= self.run_config.retries:
                    # Deterministic simulated backoff, charged to the
                    # surviving run's kernel-time ledger.
                    retry_cycles += retry_backoff_cycles(attempts)
                    continue
                result = self._capture(
                    workload_name, dataset_name, policy, scenario,
                    error, attempts,
                )
            except (
                CellBudgetExceededError,
                OutOfMemoryError,
                WatchdogExpiredError,
            ) as error:
                # Deterministic failures: retrying replays the identical
                # simulation, so capture immediately.  (A wall-clock
                # watchdog expiry is not strictly deterministic, but a
                # cell slow enough to trip it would burn the retry
                # budget re-wedging the sweep — absorb it immediately.)
                result = self._capture(
                    workload_name, dataset_name, policy, scenario,
                    error, attempts,
                )
            else:
                metrics.attempts = attempts
                metrics.retry_cycles = retry_cycles
                metrics.context.update(
                    scenario=scenario.name,
                    pressure_gb=scenario.pressure_gb,
                    frag_level=scenario.frag_level,
                    policy=policy.name,
                )
                result = metrics
            break
        return result

    def cell_spec(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
    ) -> str:
        """The cell's journal identity (see
        :func:`~repro.runstate.serialize.spec_fingerprint`): derived
        from the cell specification alone — never from object identity
        or cache state — so :meth:`clear_cache` and process restarts do
        not invalidate journal records."""
        return spec_fingerprint(
            workload=workload_name,
            dataset=dataset_name,
            policy=policy,
            scenario=scenario,
            pagerank_iterations=self.pagerank_iterations,
            profile_name=self.config.name,
            fault_plan=self.effective_fault_plan,
            max_retries=self.run_config.retries,
            cell_budget=self.run_config.cell_budget,
            cell_cycles=self.run_config.cell_cycles,
        )

    def _simulate_cell(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
        graph: CsrGraph,
        preprocess_accesses: int,
        injector: Optional[FaultInjector],
    ) -> RunMetrics:
        """One attempt at one cell, on a fresh machine."""
        workload = self._make_workload(workload_name, graph)
        machine = Machine(
            self.config,
            policy.make_thp(),
            injector=injector,
            # sanitize=None defers to REPRO_SANITIZE / set_sanitize();
            # trace=True arms a fresh per-cell tracer (repro.obs).
            sanitize=True if self.run_config.sanitize else None,
            trace=self.run_config.trace,
            tlb_engine=self.run_config.tlb_engine,
        )
        layout = MemoryLayout(workload, policy.plan.order)
        self._apply_scenario(machine, scenario, layout, policy.plan)
        # A fresh watchdog per attempt: retries must not inherit an
        # already-spent cycle budget or wall-clock window.
        run_config = self.run_config
        watchdog = None
        if (
            run_config.cell_cycles is not None
            or run_config.cell_deadline_seconds is not None
        ):
            watchdog = CellWatchdog(
                max_cycles=run_config.cell_cycles,
                deadline_seconds=run_config.cell_deadline_seconds,
            )
        return machine.run(
            workload,
            plan=policy.plan,
            load_bytes=on_disk_bytes(graph),
            tmpfs_remote=scenario.tmpfs_remote,
            preprocess_accesses=preprocess_accesses,
            dataset=dataset_name,
            access_budget=self.run_config.cell_budget,
            watchdog=watchdog,
            # The inputs _prepared_graph and _make_workload turn into
            # this workload's deterministic stream sequence.
            replay=self._replay,
            stream_key=(
                (
                    dataset_name,
                    policy.plan.reorder,
                    workload_needs_weights(workload_name),
                ),
                workload_name,
                self.pagerank_iterations,
            ),
        )

    def _capture(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
        error: Exception,
        attempts: int,
    ) -> CellFailure:
        """Fold a cell-level error into a structured failure record."""
        if not self.capture_failures:
            raise error
        failure = CellFailure(
            workload=workload_name,
            dataset=dataset_name,
            policy=policy.name,
            scenario=scenario.name,
            # Errors that declare a cause label (e.g. the watchdog's
            # "watchdog") render as FAILED(label); the rest fall back to
            # the exception class name.
            error=getattr(error, "cause_label", type(error).__name__),
            message=str(error),
            attempts=attempts,
            site=getattr(error, "site", None),
            fault_hit=getattr(error, "hit", None),
        )
        return failure

    # ------------------------------------------------------------------

    def _prepared_graph(
        self, dataset_name: str, reorder: str, weighted: bool
    ) -> tuple[CsrGraph, int]:
        """The dataset's graph under the requested ordering, plus the
        preprocessing access count to charge."""
        key = (dataset_name, reorder, weighted)
        cached = self._graph_cache.get(key)
        if cached is not None:
            return cached
        graph = load_dataset(dataset_name, weighted=weighted).graph
        if reorder == "original":
            result = (graph, 0)
        else:
            perm = self._reorder_permutation(dataset_name, reorder, graph)
            accesses = DBG_COST.accesses(
                graph.num_vertices, graph.num_edges
            )
            result = (graph.relabel(perm), accesses)
        self._graph_cache[key] = result
        return result

    def _reorder_permutation(
        self, dataset_name: str, reorder: str, graph: CsrGraph
    ) -> Any:
        """The reorder permutation for ``(dataset, reorder)``, computed
        once and shared across the weighted and unweighted graph
        variants: every ordering depends only on the graph *structure*
        (degrees, adjacency), which edge weights do not change."""
        key = (dataset_name, reorder)
        perm = self._perm_cache.get(key)
        if perm is None:
            try:
                ordering = ORDERINGS[reorder]
            except KeyError:
                raise ExperimentError(
                    f"unknown reordering {reorder!r}"
                ) from None
            perm = ordering(graph)
            self._perm_cache[key] = perm
        return perm

    def _make_workload(self, workload_name: str, graph: CsrGraph):
        kwargs = {}
        if workload_name == "pagerank":
            kwargs["max_iterations"] = self.pagerank_iterations
        return create_workload(workload_name, graph, **kwargs)

    def _apply_scenario(
        self,
        machine: Machine,
        scenario: Scenario,
        layout: MemoryLayout,
        plan=None,
    ) -> None:
        """Configure machine memory state before the measured run.

        hugetlbfs reservations are made *first* (boot-time semantics:
        ``vm.nr_hugepages`` is set before any pressure exists), then
        memhog, background noise and fragmentation follow.
        """
        if plan is not None and plan.hugetlb_fractions:
            lengths = {
                spec.array_id: spec.length_bytes
                for spec in layout.specs.values()
            }
            regions = plan.hugetlb_regions_needed(
                lengths, machine.config.pages.huge_page_size
            )
            machine.reserve_hugetlb(regions)
        if scenario.is_pressured:
            assert scenario.pressure_gb is not None
            gb = machine.config.gb_equivalent
            free_target = layout.total_bytes + int(scenario.pressure_gb * gb)
            if free_target < 0:
                raise ExperimentError(
                    f"scenario {scenario.name} leaves negative free memory"
                )
            machine.memhog_leave_free(free_target)
            machine.scatter_noise(
                nonmovable_bytes=int(scenario.noise_nonmovable_gb * gb),
                movable_bytes=int(scenario.noise_movable_gb * gb),
            )
        if scenario.frag_level > 0.0:
            machine.fragment(scenario.frag_level)
        machine.finish_setup()

    # ------------------------------------------------------------------

    def speedup(
        self,
        workload_name: str,
        dataset_name: str,
        policy: Policy,
        scenario: Scenario,
        baseline_policy: Policy,
        baseline_scenario: Optional[Scenario] = None,
    ) -> float:
        """Kernel-time speedup of (policy, scenario) over the baseline
        cell for the same workload and dataset (a :class:`CellFailure`
        if either cell failed, the baseline first)."""
        from .figures import speedup

        if baseline_scenario is None:
            baseline_scenario = scenario
        run = self.run_cell(workload_name, dataset_name, policy, scenario)
        base = self.run_cell(
            workload_name, dataset_name, baseline_policy, baseline_scenario
        )
        return speedup(run, base)

    def clear_cache(self) -> None:
        """Drop all cached cells, prepared graphs and replayable
        stream outcomes (frees memory between figure batches); failure
        records and the trace log are reset too.

        Journal state is untouched: spec fingerprints derive from the
        cell *specification* (see :meth:`cell_spec`), not from object
        identity or cache contents, so completed journal records remain
        valid — and resumable — across any number of cache clears."""
        self._cache.clear()
        self._graph_cache.clear()
        self._perm_cache.clear()
        self._replay.clear()
        self.failures.clear()
        self.trace_log.clear()
        self.metrics.reset()
        self._harness_clock = 0
        self._autosize_emitted = False
        tracer = self.harness_tracer
        if tracer is not None:
            tracer.drain()
