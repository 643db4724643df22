"""Transparent huge page (THP) policy engine.

Models the Linux THP machinery the paper characterizes (§2.3):

- **Modes** mirror ``/sys/kernel/mm/transparent_hugepage/enabled``:
  ``ALWAYS`` (system-wide THP), ``MADVISE`` (only regions advised with
  ``MADV_HUGEPAGE``), ``NEVER`` (the paper's 4KB baseline).
- **Fault-time allocation**: when a process first touches an eligible
  aligned chunk, the policy tries to back it with a huge page, optionally
  performing direct compaction/reclaim in the fault path (the latency the
  paper attributes to huge page creation under pressure).
- **khugepaged promotion**: a background pass that upgrades base-mapped
  eligible chunks to huge pages by copying, charged to the kernel ledger.
- **Demotion**: splitting a huge page back into base pages, as the swap
  path does before evicting one of its pages.

:class:`ThpPolicy` is a frozen value: the kernel's THP settings plus an
optional :class:`~repro.policy.hooks.PagePolicy` that overrides them at
every decision point.  Without one, the policy is its own hook — its
``on_fault`` / ``on_khugepaged_scan`` apply the knobs — so the built-in
modes run on the same code path as any zoo policy, pinned byte-identical
to the historical hardwired logic by ``tests/test_policy_golden.py``.
All memory state lives in the VMM and the physical frame map, and the
machine's fault injector, MemSan sanitizer and tracer live on its NUMA
nodes, where the VMM's promotion / demotion / khugepaged gates reach
them; one policy value can therefore back any number of machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from ..policy.hooks import PageDecision

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids cycles)
    from ..policy.hooks import FaultContext, PagePolicy, PromotionCandidate
    from ..policy.view import PolicyView


class ThpMode(Enum):
    """System-wide THP setting."""

    NEVER = "never"
    MADVISE = "madvise"
    ALWAYS = "always"


@dataclass(frozen=True)
class ThpPolicy:
    """Configuration of the THP machinery, and its built-in hook.

    Attributes:
        mode: system-wide enablement (see :class:`ThpMode`).
        fault_alloc: attempt huge allocation at first-touch fault time
            (``hugepage/defrag`` != ``never``).  When False, eligible
            chunks start as base pages and only khugepaged can upgrade
            them.
        fault_compact: allow direct compaction in the fault path to
            assemble a region (``defrag = always``); when False the fault
            path only takes pristine regions and defers the rest to
            khugepaged (``defrag = defer``).
        fault_reclaim: allow dropping reclaimable page-cache frames in the
            fault path.
        khugepaged_enabled: background promotion passes run between
            workload phases.
        khugepaged_compact: khugepaged may compact/reclaim to find regions.
        hooks: a :class:`~repro.policy.hooks.PagePolicy` overriding the
            boolean knobs at every decision point (docs/policies.md).
            ``None`` (the default) makes this policy its own hook.
            Excluded from equality, so configured policies compare by
            settings.
    """

    mode: ThpMode = ThpMode.NEVER
    fault_alloc: bool = True
    fault_compact: bool = True
    fault_reclaim: bool = True
    khugepaged_enabled: bool = True
    khugepaged_compact: bool = True
    hooks: Optional["PagePolicy"] = field(
        default=None, repr=False, compare=False
    )

    @staticmethod
    def never() -> "ThpPolicy":
        """The paper's baseline: 4KB pages only."""
        return ThpPolicy(mode=ThpMode.NEVER, khugepaged_enabled=False)

    @staticmethod
    def always() -> "ThpPolicy":
        """Linux's greedy system-wide THP policy."""
        return ThpPolicy(mode=ThpMode.ALWAYS)

    @staticmethod
    def madvise() -> "ThpPolicy":
        """Programmer-directed THP: only advised regions get huge pages."""
        return ThpPolicy(mode=ThpMode.MADVISE)

    def wants_huge(self, advised: bool) -> bool:
        """Whether a chunk with the given madvise state should be huge."""
        if self.mode is ThpMode.ALWAYS:
            return True
        if self.mode is ThpMode.MADVISE:
            return advised
        return False

    # ------------------------------------------------------------------
    # The built-in hook (docs/policies.md)
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"builtin:{self.mode.value}"

    def on_fault(
        self, ctx: "FaultContext", view: "PolicyView"
    ) -> PageDecision:
        huge = (
            self.fault_alloc
            and ctx.chunk_full
            and self.wants_huge(ctx.advised)
            and not ctx.partially_mapped
        )
        return PageDecision(
            huge=huge,
            allow_compaction=self.fault_compact,
            allow_reclaim=self.fault_reclaim,
        )

    def on_khugepaged_scan(
        self,
        candidates: Sequence["PromotionCandidate"],
        view: "PolicyView",
    ) -> Sequence["PromotionCandidate"]:
        return tuple(
            candidate
            for candidate in candidates
            if self.wants_huge(candidate.advised)
        )
