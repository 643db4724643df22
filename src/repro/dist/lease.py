"""Per-cell leases: the coordinator's exactly-once dispatch ledger.

A :class:`LeaseTable` is a plain single-threaded data structure — the
coordinator touches it only from its event loop, so it needs no locks
and every timing input is an injected ``now`` (tests drive it with a
fake clock; the coordinator passes ``loop.time()``).

Lifecycle of one cell::

    pending --lease()--> active --complete()--> completed
       ^                   |
       '---expire(now)-----'        (attempts capped; the coordinator
                                     claims exhausted cells local)

A lease whose cell has run for longer than ``max_age`` (the cell
deadline plus a grace window) is refused renewal and marked
``overdue``: its worker is alive but wedged.  The age counts from the
first renewal that reports the cell ``started`` (its graph is prepared
and the simulation, with its in-worker watchdog, begins), so loading
or reordering a large dataset never eats the grace.  When it expires
the spec is *not* re-queued — the coordinator settles it as
``FAILED(watchdog)`` instead of handing the same hang to the next
worker.

Invariants the table maintains:

- a spec is in exactly one of ``pending`` / active / ``completed`` /
  ``local`` at any time — an expired lease re-queues its spec, it
  never duplicates it;
- :meth:`complete` is keyed by **spec**, not lease id, and is
  first-write-wins: a result streamed after the lease expired (the
  worker was slow, not dead) still lands, and a second result for the
  same spec reports ``duplicate`` instead of overwriting — the
  journal-facing exactly-once guarantee;
- attempts only grow; a re-leased cell carries its attempt number so
  observers can distinguish grant #1 from a post-expiry re-grant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass
class Lease:
    """One live grant of one cell to one worker."""

    lease_id: str
    spec: str
    worker: str
    deadline: float
    attempt: int
    task: dict
    started: Optional[float] = None
    overdue: bool = False


class LeaseTable:
    """See module docstring.  Single-threaded; clock injected."""

    def __init__(
        self,
        tasks: dict[str, dict],
        lease_seconds: float,
        max_attempts: int,
        max_age: Optional[float] = None,
    ) -> None:
        self.tasks = dict(tasks)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.max_age = max_age
        self.pending: deque[str] = deque(sorted(tasks))
        self.active: dict[str, Lease] = {}
        self._lease_by_spec: dict[str, str] = {}
        self.attempts: dict[str, int] = {spec: 0 for spec in tasks}
        self.completed: set[str] = set()
        self.local: set[str] = set()
        self._next_id = 0

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.tasks)

    @property
    def remote_remaining(self) -> int:
        """Cells still owed to remote workers (pending or leased)."""
        return len(self.pending) + len(self.active)

    def lease(self, worker: str, now: float) -> Optional[Lease]:
        """Grant the next pending cell to ``worker``; None when idle."""
        while self.pending:
            spec = self.pending.popleft()
            if spec in self.completed or spec in self.local:
                continue
            self._next_id += 1
            self.attempts[spec] += 1
            lease = Lease(
                lease_id=f"l{self._next_id}",
                spec=spec,
                worker=worker,
                deadline=now + self.lease_seconds,
                attempt=self.attempts[spec],
                task=self.tasks[spec],
            )
            self.active[lease.lease_id] = lease
            self._lease_by_spec[spec] = lease.lease_id
            return lease
        return None

    def renew(
        self, lease_id: str, now: float, started: bool = False
    ) -> Optional[Lease]:
        """Extend a live lease's deadline; None when it is not live
        (expired and re-queued, completed, or never granted) or its
        cell has run for longer than ``max_age`` (then it is marked
        ``overdue``).  The first renewal with ``started`` starts that
        clock."""
        lease = self.active.get(lease_id)
        if lease is None or lease.overdue:
            return None
        if started and lease.started is None:
            lease.started = now
        age = 0.0 if lease.started is None else now - lease.started
        if self.max_age is not None and age > self.max_age:
            lease.overdue = True
            return None
        lease.deadline = now + self.lease_seconds
        return lease

    def expire(self, now: float) -> list[Lease]:
        """Drop every lease past its deadline, re-queueing each spec
        whose lease is not ``overdue``.

        Returns the expired leases (the caller emits events, settles
        overdue ones and checks each spec's attempt count against
        ``max_attempts``).
        """
        expired = [
            lease for lease in self.active.values()
            if lease.deadline <= now
        ]
        for lease in expired:
            self._drop_lease(lease)
            if (
                lease.spec not in self.completed
                and lease.spec not in self.local
                and not lease.overdue
            ):
                self.pending.append(lease.spec)
        return expired

    def exhausted(self, spec: str) -> bool:
        """Whether re-leasing ``spec`` again would exceed the cap."""
        return self.attempts.get(spec, 0) >= self.max_attempts

    def complete(self, spec: str) -> bool:
        """Mark ``spec`` completed (first-write-wins).

        Returns True on the first completion, False when the spec was
        already completed (the caller reports a duplicate or conflict
        after comparing payloads).
        """
        if spec not in self.tasks:
            raise KeyError(spec)
        if spec in self.completed:
            return False
        self.completed.add(spec)
        self.local.discard(spec)
        self._unqueue(spec)
        lease_id = self._lease_by_spec.get(spec)
        if lease_id is not None and lease_id in self.active:
            self._drop_lease(self.active[lease_id])
        return True

    def claim_local(self, spec: str) -> bool:
        """Take ``spec`` away from remote dispatch (local execution
        owns it now).  Returns False when it is already completed or
        already claimed."""
        if spec in self.completed or spec in self.local:
            return False
        self.local.add(spec)
        self._unqueue(spec)
        lease_id = self._lease_by_spec.get(spec)
        if lease_id is not None and lease_id in self.active:
            self._drop_lease(self.active[lease_id])
        return True

    def remote_specs(self) -> Iterable[str]:
        """Every cell still owed to remote dispatch (pending or
        leased), in sorted order — the degradation path walks this and
        claims each via :meth:`claim_local`."""
        remote = set(self.pending) | {
            lease.spec for lease in self.active.values()
        }
        return sorted(remote)

    # ------------------------------------------------------------------

    def _unqueue(self, spec: str) -> None:
        # A spec completed (or claimed local) while re-queued — e.g. a
        # late result streamed after its lease expired — must stop
        # counting as remote work, or remote_remaining would hold the
        # batch in remote mode (and the degrade sweep would churn) over
        # cells that are already settled.
        try:
            self.pending.remove(spec)
        except ValueError:
            pass

    def _drop_lease(self, lease: Lease) -> None:
        self.active.pop(lease.lease_id, None)
        if self._lease_by_spec.get(lease.spec) == lease.lease_id:
            self._lease_by_spec.pop(lease.spec, None)
