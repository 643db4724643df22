"""The trace-event taxonomy: names, required fields, units.

Every event the simulator can emit is declared here, once, as the
single source of truth the exporters validate against and the golden
schema test pins.  An event record is a flat JSON-safe dict::

    {"seq": 17, "cycles": 120448, "name": "thp.promotion",
     "vma": "property_array", "chunk": 3, "frames": 32}

``seq`` is a per-run monotone sequence number (ordering is exact even
when two events share a timestamp) and ``cycles`` is the simulated
kernel-ledger clock at emission time — never a wall clock, so traces
are bit-for-bit reproducible (rule REP001).  The remaining fields are
event-specific and listed in :data:`EVENT_SCHEMA` with the
:mod:`repro.units` family each one is measured in.

Event names are dotted ``subsystem.verb[.qualifier]`` strings grouped
by the subsystem that emits them:

- ``phase.*`` — the machine's run phases (load / init / compute),
- ``thp.*`` — the THP engine: fault-time grant/deny, khugepaged,
  promotion, demotion,
- ``policy.*`` — decisions made by an attached :mod:`repro.policy`
  hook (only emitted when a custom ``PagePolicy`` is installed; the
  built-in mode paths stay silent so legacy traces are unchanged),
- ``mem.*`` — the physical allocator: compaction and reclaim,
- ``swap.*`` — the swap device,
- ``cache.*`` — the page cache,
- ``tlb.*`` — per-access-stream translation counts,
- ``pool.*`` — ``--workers`` fan-out sizing (the CPU clamp),
- ``harness.*`` — the experiment harness's resilience machinery
  (retries, absorbed failures, watchdog kills),
- ``dist.*`` / ``net.*`` — the distributed sweep layer
  (:mod:`repro.dist`): lease lifecycle on the coordinator, result
  collection and dedup/conflict outcomes, degradation to local
  execution, and the deterministic network fault sites fired by the
  chaos client.  These are clocked by a logical monotone counter
  rather than simulated cycles (the coordinator has no single
  simulated machine), which keeps them REP001-clean.
"""

from __future__ import annotations

from typing import Any, Iterable

COMMON_FIELDS: dict[str, str] = {
    "seq": "count",
    "cycles": "cycles",
    "name": "name",
}
"""Fields present on every event record, with their units."""

EVENT_SCHEMA: dict[str, dict[str, str]] = {
    # -- machine run phases -------------------------------------------
    "phase.begin": {"phase": "name"},
    "phase.end": {"phase": "name", "phase_cycles": "cycles"},
    # -- THP engine ----------------------------------------------------
    "thp.fault.grant": {"vma": "name", "chunk": "index", "frames": "frames"},
    "thp.fault.deny": {"vma": "name", "chunk": "index"},
    "thp.khugepaged.scan": {},
    "thp.khugepaged": {"promoted": "count"},
    "thp.promotion": {"vma": "name", "chunk": "index", "frames": "frames"},
    "thp.demotion": {"vma": "name", "chunk": "index"},
    # -- policy hooks (custom PagePolicy attached; repro.policy) ------
    "policy.fault": {"policy": "name", "vma": "name", "chunk": "index",
                     "huge": "count"},
    "policy.khugepaged": {"policy": "name", "candidates": "count",
                          "selected": "count"},
    # -- physical allocator -------------------------------------------
    "mem.compaction": {"region": "index", "migrated_frames": "frames"},
    "mem.reclaim": {"frames": "frames"},
    # -- swap device ---------------------------------------------------
    "swap.out": {"pages": "pages"},
    "swap.in": {"pages": "pages"},
    # -- page cache ----------------------------------------------------
    "cache.stage": {"file": "name", "frames": "frames"},
    "cache.evict": {"file": "name", "frames": "frames"},
    # -- TLB hierarchy -------------------------------------------------
    "tlb.stream": {
        "stream": "index",
        "engine": "name",
        "accesses": "count",
        "l1_misses": "count",
        "walks": "count",
    },
    # -- --workers fan-out sizing -------------------------------------
    "pool.autosize": {
        "requested": "count",
        "effective": "count",
        "cpus": "count",
    },
    # -- experiment harness resilience --------------------------------
    "harness.retry": {"cell": "name", "retries": "count"},
    "harness.cell_failure": {"cell": "name", "cause": "name",
                             "attempts": "count"},
    "harness.watchdog_kill": {"cell": "name"},
    # -- distributed sweeps: lease lifecycle --------------------------
    "dist.lease.grant": {"spec": "name", "worker": "name",
                         "attempt": "count"},
    "dist.lease.renew": {"spec": "name", "worker": "name"},
    "dist.lease.expire": {"spec": "name", "worker": "name",
                          "attempt": "count"},
    # -- distributed sweeps: result collection ------------------------
    "dist.result": {"spec": "name", "worker": "name"},
    "dist.duplicate": {"spec": "name", "worker": "name"},
    "dist.conflict": {"spec": "name", "worker": "name"},
    # -- distributed sweeps: degradation to local execution -----------
    "dist.local": {"spec": "name", "reason": "name"},
    "dist.mode": {"from_mode": "name", "to_mode": "name",
                  "reason": "name"},
    # -- network chaos fault sites (repro.dist.netchaos) --------------
    "net.drop": {"point": "name", "ordinal": "count"},
    "net.delay": {"point": "name", "ordinal": "count"},
    "net.sever": {"point": "name", "ordinal": "count"},
}
"""Event name -> required event-specific fields and their units."""

EVENT_NAMES: tuple[str, ...] = tuple(sorted(EVENT_SCHEMA))
"""Every declared event name, sorted."""


def validate_event(record: dict[str, Any]) -> list[str]:
    """Validate one event record against the schema.

    Returns a list of problems (empty when the record is valid): an
    undeclared name, a missing common/required field, or a field the
    schema does not declare.
    """
    problems: list[str] = []
    for field in COMMON_FIELDS:
        if field not in record:
            problems.append(f"missing common field {field!r}")
    name = record.get("name")
    if name not in EVENT_SCHEMA:
        problems.append(f"undeclared event name {name!r}")
        return problems
    required = EVENT_SCHEMA[name]
    for field in required:
        if field not in record:
            problems.append(f"{name}: missing field {field!r}")
    allowed = set(COMMON_FIELDS) | set(required)
    for field in sorted(set(record) - allowed):
        problems.append(f"{name}: undeclared field {field!r}")
    return problems


def validate_events(records: Iterable[dict[str, Any]]) -> list[str]:
    """Validate a sequence of event records; problems are prefixed with
    the record's position so a bad event in a long trace is findable."""
    problems: list[str] = []
    for index, record in enumerate(records):
        for problem in validate_event(record):
            problems.append(f"event[{index}]: {problem}")
    return problems
