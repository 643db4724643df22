"""repro.policy — the pluggable page-size policy API (docs/policies.md).

This package turns the simulator's hardwired THP decision points into a
policy-research platform:

- :mod:`repro.policy.hooks` — the stable :class:`PagePolicy` callback
  interface and its frozen context/decision types;
- :mod:`repro.policy.view` — the read-only :class:`PolicyView` hooks
  observe the machine through;
- :mod:`repro.policy.registry` — the name-keyed zoo registry behind
  ``--policy NAME[:k=v,...]``;
- :mod:`repro.policy.zoo` — the shipped policy zoo;
- :mod:`repro.policy.tournament` — the leaderboard harness behind
  ``repro tournament``.

Only the hook-interface layer is re-exported here; the registry, zoo
and tournament layers sit *above* the memory subsystem (they build
:class:`~repro.experiments.policies.Policy` objects), so they are
imported as submodules — e.g. ``from repro.policy.registry import
get_policy`` — or through :mod:`repro.api`, keeping this package
importable from inside :mod:`repro.mem` without a cycle.
"""

from .hooks import (
    BASE_PAGES,
    BasePagePolicy,
    FaultContext,
    PageDecision,
    PagePolicy,
    PromotionCandidate,
)
from .view import PolicyView

__all__ = [
    "BASE_PAGES",
    "BasePagePolicy",
    "FaultContext",
    "PageDecision",
    "PagePolicy",
    "PolicyView",
    "PromotionCandidate",
]
