"""Configuration for the distributed sweep layer (:mod:`repro.dist`).

One :class:`DistConfig` describes a coordinator's transport and lease
behaviour — nothing else.  How a cell executes is the figure runner's
:class:`~repro.experiments.runconfig.RunConfig`: the coordinator ships
:meth:`~repro.experiments.harness.ExperimentRunner.worker_run_config`
to every worker through :meth:`RunConfig.to_wire
<repro.experiments.runconfig.RunConfig.to_wire>`, so a worker's spec
fingerprints match the coordinator's by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


def parse_connect(value: str) -> tuple[Optional[str], str, int]:
    """Parse a ``--connect`` / ``--distribute`` address.

    Returns ``(socket_path, host, port)``: anything containing a slash
    (or ending in ``.sock``) is a UNIX-domain socket path; otherwise
    ``host:port`` or a bare port on loopback.
    """
    value = value.strip()
    if not value:
        raise ConfigError("empty coordinator address")
    if "/" in value or value.endswith(".sock"):
        return value, "", 0
    host, _, port_text = value.rpartition(":")
    if not host:
        host, port_text = "127.0.0.1", value
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigError(
            f"bad coordinator address {value!r}: expected a socket "
            "path or host:port"
        ) from exc
    return None, host, port


@dataclass(frozen=True)
class DistConfig:
    """Immutable settings for one :class:`~repro.dist.DistCoordinator`.

    Attributes:
        socket_path: UNIX-domain socket to listen on (preferred; wins
            over TCP when set).
        host, port: loopback TCP fallback.
        lease_seconds: lease duration; a worker renews at roughly a
            third of this, so one missed heartbeat survives and two do
            not.
        max_lease_attempts: grants per cell before the coordinator
            stops re-leasing it and runs it locally (a cell that kills
            every worker it lands on must not orbit forever).
        local_grace_seconds: with no worker contact for this long while
            work is pending, the coordinator degrades the whole batch
            to local execution — one-way, never back to remote.
    """

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 7351
    lease_seconds: float = 5.0
    max_lease_attempts: int = 3
    local_grace_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ConfigError("lease_seconds must be positive")
        if self.max_lease_attempts < 1:
            raise ConfigError("max_lease_attempts must be >= 1")
        if self.local_grace_seconds < 0:
            raise ConfigError("local_grace_seconds must be >= 0")
