"""Run configuration: one validated, immutable object for every knob
that controls *how* an experiment sweep executes.

:class:`~repro.experiments.harness.ExperimentRunner` accreted these
knobs one PR at a time — fault injection, retries, budgets, journaling,
watchdogs, parallelism, tracing — until its constructor was a grab-bag
of nine keyword arguments.  :class:`RunConfig` consolidates them:

- **one frozen dataclass** holds the full execution policy, validated
  on construction (a nonsense configuration fails loudly at build time,
  not three figures into a sweep);
- **normalization is built in**: ``journal`` accepts a path string or a
  :class:`~repro.runstate.journal.RunJournal`, ``faults`` accepts a
  plan string (``"compaction:0.5"``) or a parsed
  :class:`~repro.faults.spec.FaultPlan`;
- :meth:`RunConfig.from_cli` is the single translation point from
  ``argparse`` flags, shared by every subcommand;
- :meth:`RunConfig.to_wire` / :meth:`RunConfig.from_wire` are the one
  lossless JSON codec for shipping it to another process: a
  ``repro work`` agent rebuilds its runner from exactly the config the
  coordinator's runner holds (minus the parent-owned ``journal``,
  ``resume`` and ``workers``), so every field — added now or later —
  reaches every worker without a second copy of the settings.

The knobs deliberately exclude anything that changes the *simulated
outcome's identity* beyond what the journal fingerprints already cover:
``RunConfig`` says how to run, :class:`~repro.config.MachineConfig`
says what to simulate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

from ..errors import ConfigError
from ..faults.sites import FaultSite
from ..faults.spec import FaultPlan, FaultSpec
from ..runstate.journal import RunJournal

if TYPE_CHECKING:
    import argparse

_PARENT_OWNED = ("journal", "resume", "workers")
"""Fields that never cross a process boundary: the parent process owns
durability and fan-out (:meth:`RunConfig.worker_view` clears them)."""


def _plan_to_wire(plan: Optional[FaultPlan]) -> Optional[dict[str, Any]]:
    if plan is None:
        return None
    specs = [
        {**dataclasses.asdict(spec), "site": spec.site.value}
        for spec in plan.specs
    ]
    return {"specs": specs, "seed": plan.seed}


def _plan_from_wire(wire: Optional[dict[str, Any]]) -> Optional[FaultPlan]:
    if wire is None:
        return None
    try:
        specs = tuple(
            FaultSpec(**{**spec, "site": FaultSite(spec["site"])})
            for spec in wire["specs"]
        )
        return FaultPlan(specs=specs, seed=int(wire["seed"]))
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigError(f"malformed wire fault plan: {error}") from None


@dataclass(frozen=True)
class RunConfig:
    """Execution policy for an :class:`ExperimentRunner`.

    Attributes:
        workers: process fan-out for batched cells. ``1`` is the serial
            path (bit-for-bit identical to historical behavior), ``0``
            means one worker per CPU, ``N > 1`` uses a work-stealing
            pool with a deterministic spec-order merge.
        journal: crash-safe run journal — a
            :class:`~repro.runstate.journal.RunJournal` or a path
            string (normalized to one).  ``None`` disables journaling.
        resume: reuse completed journal records whose spec fingerprint
            matches instead of re-simulating.  Requires ``journal``.
        retries: bounded retries per cell for *injected* faults
            (deterministic OOM/budget failures are never retried).
        cell_budget: cap on simulated compute accesses per cell
            (runaway guard); ``None`` disables it.
        cell_cycles: per-cell simulated-cycle watchdog budget
            (deterministic — participates in cell identity).
        cell_deadline_seconds: per-cell wall-clock watchdog deadline
            (nondeterministic by design — excluded from cell identity).
        faults: fault-injection plan — a
            :class:`~repro.faults.spec.FaultPlan` or a plan string
            (normalized via :meth:`FaultPlan.parse` with
            ``fault_seed``).  Overrides ``config.fault_plan`` when set.
        fault_seed: seed used when ``faults`` is given as a string.
        sanitize: force MemSan on for every simulated cell (``False``
            defers to ``REPRO_SANITIZE`` / ``set_sanitize()``).
        trace: arm the observability tracer (:mod:`repro.obs`) on every
            simulated machine; events and counter snapshots ride on
            each cell's :class:`~repro.machine.metrics.RunMetrics` and
            accumulate on the runner's ``trace_log``.
        tlb_engine: translation engine per simulated cell — ``"exact"``
            (the reference per-lookup simulator), ``"batch"`` (the
            vectorized set-wise engine, docs/performance.md) or
            ``"auto"`` (batch after a one-time per-geometry equivalence
            self-check, falling back to exact).  Both engines produce
            identical counts, so the engine is pure execution policy:
            it is *excluded* from journal spec fingerprints, and a
            sweep journaled under one engine resumes cleanly under the
            other.
    """

    workers: int = 1
    journal: Optional[Union[RunJournal, str]] = None
    resume: bool = False
    retries: int = 2
    cell_budget: Optional[int] = None
    cell_cycles: Optional[int] = None
    cell_deadline_seconds: Optional[float] = None
    faults: Optional[Union[FaultPlan, str]] = None
    fault_seed: int = 0
    sanitize: bool = False
    trace: bool = False
    tlb_engine: str = "auto"

    def __post_init__(self) -> None:
        # Normalization first (idempotent: replace() re-runs this).
        if isinstance(self.journal, str):
            object.__setattr__(self, "journal", RunJournal(self.journal))
        if isinstance(self.faults, str):
            object.__setattr__(
                self,
                "faults",
                FaultPlan.parse(self.faults, seed=self.fault_seed),
            )
        # Validation.
        if self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = one per CPU), got {self.workers}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.cell_budget is not None and self.cell_budget <= 0:
            raise ConfigError(
                f"cell_budget must be positive or None, got {self.cell_budget}"
            )
        if self.cell_cycles is not None and self.cell_cycles <= 0:
            raise ConfigError(
                f"cell_cycles must be positive or None, got {self.cell_cycles}"
            )
        if (
            self.cell_deadline_seconds is not None
            and self.cell_deadline_seconds <= 0
        ):
            raise ConfigError(
                "cell_deadline_seconds must be positive or None, "
                f"got {self.cell_deadline_seconds}"
            )
        if self.resume and self.journal is None:
            raise ConfigError("resume=True requires a journal")
        if self.journal is not None and not isinstance(
            self.journal, RunJournal
        ):
            raise ConfigError(
                "journal must be a RunJournal or a path string, "
                f"got {type(self.journal).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigError(
                "faults must be a FaultPlan or a plan string, "
                f"got {type(self.faults).__name__}"
            )
        if self.tlb_engine not in ("exact", "batch", "auto"):
            raise ConfigError(
                "tlb_engine must be one of 'exact', 'batch', 'auto', "
                f"got {self.tlb_engine!r}"
            )

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def worker_view(self) -> "RunConfig":
        """The configuration a pool worker runs under: identical
        execution policy minus durability — the parent process is the
        single owner of the journal (docs/performance.md)."""
        if self.journal is None and not self.resume and self.workers == 1:
            return self
        return self.replace(journal=None, resume=False, workers=1)

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe encoding of every field but the parent-owned
        ``journal``, ``resume`` and ``workers``; the fault plan travels
        structurally (site, trigger, ``max_fires`` and seed), never as
        CLI text.  :meth:`from_wire` inverts it exactly."""
        wire = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in _PARENT_OWNED
        }
        wire["faults"] = _plan_to_wire(self.faults)
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "RunConfig":
        """Rebuild a (journal-free, serial) config from :meth:`to_wire`.

        Raises:
            ConfigError: on unknown keys or a malformed fault plan.
        """
        known = {
            field.name for field in dataclasses.fields(cls)
        }.difference(_PARENT_OWNED)
        unknown = sorted(set(wire) - known)
        if unknown:
            raise ConfigError(f"unknown wire run-config keys: {unknown}")
        return cls(**{**wire, "faults": _plan_from_wire(wire.get("faults"))})

    @classmethod
    def from_cli(cls, args: "argparse.Namespace") -> "RunConfig":
        """Build a :class:`RunConfig` from parsed CLI flags.

        Accepts the union of the ``run``/``figure`` flag sets; absent
        attributes fall back to their defaults, so subcommands that
        omit a flag group still translate cleanly.

        Raises:
            ConfigError: on an invalid combination (e.g. ``--resume``
                without ``--journal``).
        """
        plan = None
        fault_seed = getattr(args, "fault_seed", 0)
        if getattr(args, "faults", None):
            plan = FaultPlan.parse(args.faults, seed=fault_seed)
        journal = None
        if getattr(args, "journal", None):
            # The journal's own injector (for the journal.* crash-safety
            # sites) counts appends sweep-wide, unlike the per-cell
            # simulation injectors.
            # lock=True: CLI sweeps own their journal for the process
            # lifetime, so `repro runs gc` (and a second sweep) refuse
            # to touch it while this run is alive.
            journal = RunJournal(
                args.journal,
                injector=(
                    plan.make_injector() if plan and plan.enabled else None
                ),
                lock=True,
            )
        elif getattr(args, "resume", False):
            raise ConfigError("--resume requires --journal PATH")
        return cls(
            workers=getattr(args, "workers", 1),
            journal=journal,
            resume=getattr(args, "resume", False),
            retries=getattr(args, "retries", 2),
            cell_budget=getattr(args, "cell_budget", None),
            cell_cycles=getattr(args, "cell_cycles", None),
            cell_deadline_seconds=getattr(args, "cell_deadline", None),
            faults=plan,
            fault_seed=fault_seed,
            sanitize=getattr(args, "sanitize", False),
            trace=bool(getattr(args, "trace", None)),
            tlb_engine=getattr(args, "tlb_engine", None) or "auto",
        )
