"""Fault-tolerant distributed sweep sharding (``repro.dist``).

Shards one figure sweep across remote pull-based workers with
exactly-once semantics under network failure:

- :class:`DistCoordinator` — leases cells (deadline-bounded, heartbeat
  renewed), accepts results by spec fingerprint first-write-wins, and
  degrades gracefully to local execution (one-way) when no worker is
  reachable;
- :func:`work_loop` / :class:`WorkerConfig` — the ``repro work`` agent:
  pull a lease, verify the fingerprint, journal locally, simulate,
  stream the result back with an integrity hash;
- :func:`~repro.dist.localbatch.run_local_batch` — local ``--workers
  N``: the same coordinator and N forked workers on a private socket;
- :mod:`repro.dist.http` — the HTTP/1.1 transport both ends speak:
  the coordinator's request parser and :class:`SweepClient`;
- :class:`NetChaos` / :class:`ChaosClient` — deterministic network
  faults (``drop``/``delay``/``sever`` at counted ordinals) injected at
  the client's socket seams;
- partition-tolerant durability comes from ``repro runs merge``
  (:mod:`repro.runstate.merge`): the union of the coordinator's and the
  workers' journal shards is the sweep's state, conflicts refuse.

See ``docs/service.md`` ("Distributed sweeps") for the topology, the
lease lifecycle, and the failure matrix.
"""

from .config import DistConfig, parse_connect
from .coordinator import DistCoordinator
from .lease import Lease, LeaseTable
from .netchaos import ChaosClient, NetChaos, NetFaultError
from .wire import encode_cell
from .worker import WorkerConfig, make_client, work_loop

__all__ = [
    "ChaosClient",
    "DistConfig",
    "DistCoordinator",
    "Lease",
    "LeaseTable",
    "NetChaos",
    "NetFaultError",
    "WorkerConfig",
    "encode_cell",
    "make_client",
    "parse_connect",
    "work_loop",
]
