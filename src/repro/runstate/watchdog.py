"""The cell watchdog: bounded simulated cycles and wall-clock time.

PR 1's access budget bounds how much *work* a cell may simulate; the
watchdog completes the story with two further bounds:

- ``max_cycles`` — a cap on the cell's simulated cycle cost (accesses ×
  cost model + kernel stalls).  Deterministic: the same cell trips it
  at the same point on every run, so it participates in cell identity
  (:func:`~repro.runstate.serialize.spec_fingerprint`).
- ``deadline_seconds`` — a wall-clock deadline for the *host* process
  running the cell.  Deliberately nondeterministic (that is its job —
  catching hangs and pathological slowdowns the simulated clock cannot
  see), so it is excluded from cell identity and from cache keys.

The machine's compute loop calls :meth:`CellWatchdog.check` once per
access stream — the same cadence as the access-budget check — so a
runaway cell is converted into a ``FAILED(watchdog)`` record
within one workload iteration instead of wedging the whole sweep.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import WatchdogExpiredError


class CellWatchdog:
    """Bounds one cell attempt; raises when a bound is exceeded.

    One watchdog instance covers one attempt: the harness creates a
    fresh one per attempt so retry backoff does not inherit an
    already-spent budget.
    """

    def __init__(
        self,
        max_cycles: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        if max_cycles is not None and max_cycles <= 0:
            raise ValueError(f"max_cycles must be positive, got {max_cycles}")
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {deadline_seconds}"
            )
        self.max_cycles = max_cycles
        self.deadline_seconds = deadline_seconds
        self._started_at: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether any bound is configured."""
        return self.max_cycles is not None or self.deadline_seconds is not None

    def start(self) -> None:
        """Begin the wall-clock window (called at the top of a run)."""
        if self.deadline_seconds is not None:
            # The watchdog is the one place real time is allowed: its
            # whole purpose is bounding the host's clock, not the
            # simulation's.
            self._started_at = time.monotonic()  # repro: noqa REP001

    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since :meth:`start` (0.0 if not started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at  # repro: noqa REP001

    def check(self, simulated_cycles: int) -> None:
        """Raise if either bound is exceeded.

        Args:
            simulated_cycles: the cell's simulated cycle cost so far.

        Raises:
            WatchdogExpiredError: cycle budget or deadline exceeded.
        """
        if (
            self.max_cycles is not None
            and simulated_cycles > self.max_cycles
        ):
            raise WatchdogExpiredError(
                "cycles",
                f"{simulated_cycles:,} simulated cycles > budget "
                f"{self.max_cycles:,}",
            )
        if self.deadline_seconds is not None and self._started_at is not None:
            elapsed = self.elapsed_seconds()
            if elapsed > self.deadline_seconds:
                raise WatchdogExpiredError(
                    "wall-clock",
                    f"{elapsed:.3f}s elapsed > deadline "
                    f"{self.deadline_seconds:.3f}s",
                )
