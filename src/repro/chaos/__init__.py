"""repro.chaos — deterministic process-level adversity (docs/service.md).

The simulator's fault injector (:mod:`repro.faults`) perturbs code
*inside* a process; this package perturbs the processes themselves,
on exactly counted schedules:

- :mod:`repro.chaos.plan` — :class:`ChaosPlan`: the
  ``action:point:ordinal`` grammar (``kill-worker:cell:N``,
  ``kill-server:append:N`` and the ``net.*`` network faults).
- :mod:`repro.chaos.journal` — :class:`ChaosJournal`: a run journal
  that tears an append and SIGKILLs its process on cue.
- :mod:`repro.chaos.crash` — ``python -m repro.chaos.crash``: run any
  CLI command with a SIGKILL bomb at one counted crash point.
- :mod:`repro.chaos.harness` — the ``repro chaos`` runner over the
  distributed-sweep scenarios (:mod:`repro.chaos.dist_scenarios`).
"""

from .dist_scenarios import DIST_SCENARIOS
from .harness import run_scenarios
from .journal import ChaosJournal
from .plan import ChaosAction, ChaosPlan

__all__ = [
    "DIST_SCENARIOS",
    "ChaosAction",
    "ChaosJournal",
    "ChaosPlan",
    "run_scenarios",
]
