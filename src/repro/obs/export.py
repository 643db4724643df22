"""Trace exporters: JSONL and Chrome ``trace_event`` JSON.

Two on-disk formats, both written through
:mod:`repro.runstate.atomic` so a crash mid-export never leaves a torn
file:

- **JSONL** (``repro run --trace out.jsonl``): one canonical-JSON line
  per event, each carrying its cell coordinates (workload, dataset,
  policy, scenario) alongside the event record.  Canonical encoding
  (sorted keys, fixed separators) plus spec-ordered cells make the file
  byte-identical between serial and ``--workers N`` runs of the same
  sweep.
- **Chrome trace JSON** (``repro trace export``): the
  ``chrome://tracing`` / Perfetto ``trace_event`` format.  Each cell
  becomes one "process" (named after its coordinates), ``phase.*``
  events become duration begin/end pairs, and everything else becomes
  an instant event; timestamps are simulated kernel-ledger cycles.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..errors import ReproError
from ..runstate.atomic import atomic_write_text
from ..runstate.serialize import canonical_json
from .events import validate_event

CELL_KEYS = ("workload", "dataset", "policy", "scenario")
"""Cell-coordinate keys merged into every exported JSONL line."""


def trace_lines(trace_log: Iterable[dict[str, Any]]) -> list[str]:
    """Render a harness trace log as canonical JSONL lines.

    ``trace_log`` entries are ``{"cell": coords, "events": [...]}`` as
    accumulated by :class:`~repro.experiments.harness.ExperimentRunner`;
    each event becomes one line carrying its cell coordinates.
    """
    lines: list[str] = []
    for entry in trace_log:
        coords = entry["cell"]
        for event in entry["events"]:
            record = dict(coords)
            record.update(event)
            lines.append(canonical_json(record))
    return lines


def write_trace_jsonl(path: str, trace_log: Iterable[dict[str, Any]]) -> int:
    """Write a trace log as a JSONL file (atomic whole-file replace).

    Returns the number of event lines written.
    """
    lines = trace_lines(trace_log)
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def read_trace_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a JSONL trace file back into flat event records.

    Raises:
        ReproError: if a line is not valid JSON.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{lineno}: invalid trace line: {error}"
                ) from None
    return records


def validate_trace_records(records: Iterable[dict[str, Any]]) -> list[str]:
    """Schema-check flat JSONL records (cell coordinates stripped)."""
    problems: list[str] = []
    for index, record in enumerate(records):
        event = {k: v for k, v in record.items() if k not in CELL_KEYS}
        for problem in validate_event(event):
            problems.append(f"line[{index}]: {problem}")
    return problems


def _cell_label(record: dict[str, Any]) -> str:
    coords = [str(record.get(key, "?")) for key in CELL_KEYS]
    return "{}/{} policy={} scenario={}".format(*coords)


def to_chrome_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert flat JSONL records to a ``trace_event`` JSON document.

    The result opens directly in Perfetto (ui.perfetto.dev) or
    ``chrome://tracing``: one process per cell, phases as duration
    events, everything else as thread-scoped instants, timestamps in
    simulated cycles.
    """
    pids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    metadata: list[dict[str, Any]] = []
    for record in records:
        label = _cell_label(record)
        pid = pids.get(label)
        if pid is None:
            pid = len(pids)
            pids[label] = pid
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        name = record.get("name", "?")
        args = {
            key: value
            for key, value in record.items()
            if key not in CELL_KEYS and key not in ("name", "cycles")
        }
        entry: dict[str, Any] = {
            "name": name,
            "pid": pid,
            "tid": 0,
            "ts": record.get("cycles", 0),
            "args": args,
        }
        if name == "phase.begin":
            entry["ph"] = "B"
            entry["name"] = f"phase:{record.get('phase', '?')}"
        elif name == "phase.end":
            entry["ph"] = "E"
            entry["name"] = f"phase:{record.get('phase', '?')}"
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated kernel-ledger cycles"},
    }


def write_chrome_trace(
    path: str, records: Iterable[dict[str, Any]]
) -> dict[str, Any]:
    """Write records as Chrome trace JSON (atomic); returns the document."""
    document = to_chrome_trace(records)
    atomic_write_text(
        path, json.dumps(document, sort_keys=True, indent=1) + "\n"
    )
    return document


def summarize(records: Iterable[dict[str, Any]]) -> str:
    """Human-readable per-cell digest of a trace.

    For each cell (in file order): the event count, then per event name
    the occurrence count and the sum of every integer payload field —
    enough to read a THP promotion/demotion timeline off a figure cell
    without opening Perfetto.
    """
    cells: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for record in records:
        label = _cell_label(record)
        if label not in cells:
            cells[label] = {"total": 0, "names": {}}
            order.append(label)
        bucket = cells[label]
        bucket["total"] += 1
        name = record.get("name", "?")
        per_name = bucket["names"].setdefault(name, {"count": 0, "sums": {}})
        per_name["count"] += 1
        for key, value in record.items():
            if key in CELL_KEYS or key in ("name", "seq", "cycles"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            per_name["sums"][key] = per_name["sums"].get(key, 0) + value
    lines: list[str] = []
    for label in order:
        bucket = cells[label]
        lines.append(f"{label}: {bucket['total']} event(s)")
        for name in sorted(bucket["names"]):
            per_name = bucket["names"][name]
            sums = ", ".join(
                f"{key}={per_name['sums'][key]:,}"
                for key in sorted(per_name["sums"])
            )
            suffix = f"  ({sums})" if sums else ""
            lines.append(f"  {name:20s}: {per_name['count']:>8,}{suffix}")
    if not lines:
        return "empty trace"
    return "\n".join(lines)
