"""String → experiment-object parsers shared by the CLI, the tournament
and ``repro.dist``.

Grammar (same as the CLI flags):

- policy: any spec the policy registry resolves — a registered name
  (the paper's ``base4k``/``thp``/... bars and the zoo), ``NAME:k=v,...``
  or ``selective:<s>[:<reorder>]``; :func:`parse_policy` *is*
  :func:`repro.policy.registry.get_policy` (see ``repro policies``);
- scenario: a name from ``SCENARIOS``, or ``constrained:<gb>``, or
  ``fragmented:<level>[:<gb>]``.
"""

from __future__ import annotations

from ..errors import ReproError
from ..policy.registry import get_policy as parse_policy

__all__ = ["parse_policy", "parse_scenario"]


def parse_scenario(spec: str):
    """Resolve a scenario spec string to a ``Scenario``."""
    from .scenarios import SCENARIOS, constrained, fragmented

    if spec in SCENARIOS:
        return SCENARIOS[spec]
    if spec.startswith("constrained:"):
        try:
            return constrained(float(spec.split(":")[1]))
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"bad constrained scenario spec {spec!r}: expected "
                "constrained:<gb>"
            ) from exc
    if spec.startswith("fragmented:"):
        parts = spec.split(":")
        try:
            level = float(parts[1])
            pressure = float(parts[2]) if len(parts) > 2 else 3.0
        except (IndexError, ValueError) as exc:
            raise ReproError(
                f"bad fragmented scenario spec {spec!r}: expected "
                "fragmented:<level>[:<gb>]"
            ) from exc
        return fragmented(level, pressure)
    raise ReproError(
        f"unknown scenario {spec!r}; known: "
        + ", ".join(sorted(SCENARIOS))
        + ", constrained:<gb>, fragmented:<level>[:<gb>]"
    )
