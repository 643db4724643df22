"""Chaos scenarios: deterministic process-level adversity, asserted.

The scenarios (:mod:`repro.chaos.dist_scenarios`) run a real
distributed sweep — an in-process coordinator and ``repro work``
subprocesses — apply one kind of adversity each, and assert the
recovery invariants: byte identity with a serial reference,
exactly-once results in the merged journal, refusal of divergent
shards, and schema-valid coordinator events.

Scenarios are deterministic by construction — every chaos action fires
at a counted ordinal (:mod:`repro.chaos.plan`), never at random.  The
wall-clock waits are *observation* timeouts (how long we give a
recovery that either happens or doesn't), not sources of
nondeterminism.

Run them via ``repro chaos`` (CI's ``dist-chaos`` job) or through
:func:`run_scenarios`.
"""

from __future__ import annotations

import os
from typing import Any

from ..errors import ChaosError
from .dist_scenarios import DIST_SCENARIOS, Log, _quiet


def run_scenarios(
    names: list[str],
    workdir: str,
    log: Log = _quiet,
) -> list[dict[str, Any]]:
    """Run the named scenarios, each in its own subdirectory.

    Returns one report per scenario; the first broken invariant raises
    :class:`~repro.errors.ChaosError` (scenarios after it do not run —
    chaos runs are diagnostic, not best-effort).
    """
    unknown = [name for name in names if name not in DIST_SCENARIOS]
    if unknown:
        raise ChaosError(
            f"unknown scenario(s) {', '.join(unknown)}; known: "
            + ", ".join(DIST_SCENARIOS)
        )
    reports = []
    for name in names:
        subdir = os.path.join(workdir, name.replace("-", "_"))
        os.makedirs(subdir, exist_ok=True)
        log(f"=== scenario {name} ===")
        detail = DIST_SCENARIOS[name](subdir, log=log)
        reports.append({"scenario": name, "ok": True, **detail})
        log(f"=== scenario {name}: OK ===")
    return reports
