"""Named page-management policies (the bars of the paper's figures).

A :class:`Policy` pairs a THP kernel configuration with a placement plan
(allocation order, madvise ranges, reordering).  The registry covers
every policy the paper evaluates:

- ``base4k`` — THP disabled system-wide (the baseline, green bars);
- ``thp`` — Linux's greedy system-wide THP with the natural allocation
  order (orange/red bars);
- ``thp-opt`` — system-wide THP with the property-first allocation order
  (purple bars of Figs. 7/8);
- ``madv-vertex`` / ``madv-edge`` / ``madv-values`` / ``madv-property``
  — huge pages for a single data structure via ``madvise`` (Fig. 5);
- ``dbg`` — DBG preprocessing with 4KB pages (Fig. 10 green);
- ``dbg+thp`` — DBG with system-wide THP (Fig. 10 red);
- selective policies from :func:`selective_policy` — DBG + madvise on
  the leading s% of the property array (Fig. 10 purple/brown, Fig. 11).

Every name here, and ``selective:<s>[:<reorder>]``, is spelled through
the one policy registry (:mod:`repro.policy.registry`), which is how
``--policy`` resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.plan import PlacementPlan
from ..core.selective import selective_property_plan
from ..mem.thp import ThpPolicy
from ..workloads.base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VALUES,
    ARRAY_VERTEX,
)
from ..workloads.layout import AllocationOrder


@dataclass(frozen=True)
class Policy:
    """One page-management configuration.

    Run-time policies (the heuristic kernel managers and the online
    autotuner) are the THP policy's hook, like every other decision
    maker; see :mod:`repro.mem.heuristics`.

    ``spec`` is a registry spelling that rebuilds this policy (what the
    distributed layer ships instead of the policy object), or ``None``
    for a hand-built policy.  It is not part of the policy's identity:
    it never enters equality, fingerprints, journals or figures.
    """

    name: str
    thp: ThpPolicy
    plan: PlacementPlan
    spec: Optional[str] = field(default=None, compare=False)


def _madvise_one(array_id: int, array_name: str) -> Policy:
    return Policy(
        name=f"madv-{array_name}",
        thp=ThpPolicy.madvise(),
        plan=PlacementPlan(
            advise_fractions={array_id: 1.0},
            label=f"madv-{array_name}",
        ),
        spec=f"madv-{array_name}",
    )


POLICIES: dict[str, Policy] = {
    "base4k": Policy(
        name="base4k",
        thp=ThpPolicy.never(),
        plan=PlacementPlan(label="base4k"),
        spec="base4k",
    ),
    "thp": Policy(
        name="thp",
        thp=ThpPolicy.always(),
        plan=PlacementPlan(label="thp"),
        spec="thp",
    ),
    "thp-opt": Policy(
        name="thp-opt",
        thp=ThpPolicy.always(),
        plan=PlacementPlan(
            order=AllocationOrder.PROPERTY_FIRST, label="thp-opt"
        ),
        spec="thp-opt",
    ),
    "madv-vertex": _madvise_one(ARRAY_VERTEX, "vertex"),
    "madv-edge": _madvise_one(ARRAY_EDGE, "edge"),
    "madv-values": _madvise_one(ARRAY_VALUES, "values"),
    "madv-property": _madvise_one(ARRAY_PROPERTY, "property"),
    "dbg": Policy(
        name="dbg",
        thp=ThpPolicy.never(),
        plan=PlacementPlan(reorder="dbg", label="dbg"),
        spec="dbg",
    ),
    "dbg+thp": Policy(
        name="dbg+thp",
        thp=ThpPolicy.always(),
        plan=PlacementPlan(reorder="dbg", label="dbg+thp"),
        spec="dbg+thp",
    ),
}
"""The paper's fixed policies, by the name the policy registry resolves."""


def selective_policy(
    fraction: float, reorder: str = "dbg"
) -> Policy:
    """Selective THP: madvise the leading ``fraction`` of the property
    array on a (optionally DBG-reordered) graph, property-first order."""
    plan = selective_property_plan(fraction, reorder=reorder)
    return Policy(
        name=plan.label,
        thp=ThpPolicy.madvise(),
        plan=plan,
        spec=f"selective:{float(fraction)!r}:{reorder}",
    )


def hugetlb_policy(fraction: float = 1.0, reorder: str = "dbg") -> Policy:
    """Explicit hugetlbfs reservation for the leading ``fraction`` of
    the property array, reserved at boot time (§2.3's alternative to
    THP).  THP stays off: every other array uses base pages."""
    return Policy(
        name=f"hugetlb(s={fraction:.0%},{reorder})",
        thp=ThpPolicy.never(),
        plan=PlacementPlan(
            order=AllocationOrder.PROPERTY_FIRST,
            hugetlb_fractions={ARRAY_PROPERTY: fraction},
            reorder=reorder,
            label=f"hugetlb(s={fraction:.0%},{reorder})",
        ),
    )

