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

The policy itself is stateless apart from its configuration; all memory
state lives in the VMM and the physical frame map.  The one piece of
machinery the policy *does* carry is the fault-injection hook: the
machine attaches its :class:`~repro.faults.injector.FaultInjector`, and
the promotion / demotion / khugepaged paths consult it through the
``check_*`` gates below before doing any work — so injected THP-side
failures (a stalling daemon, a collapse that aborts, a split that
cannot complete) fire at well-defined points of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from ..faults.injector import FaultInjector
from ..faults.sites import FaultSite

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids cycles)
    from ..analysis.sanitizer import MemSanitizer
    from ..obs.tracer import Tracer
    from ..policy.hooks import (
        FaultContext,
        PageDecision,
        PagePolicy,
        PromotionCandidate,
    )
    from ..policy.view import PolicyView
    from .vmm import Vma


class ThpMode(Enum):
    """System-wide THP setting."""

    NEVER = "never"
    MADVISE = "madvise"
    ALWAYS = "always"


@dataclass
class ThpPolicy:
    """Configuration of the THP machinery.

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
        injector: fault injector attached by the machine; ``None`` (the
            default) keeps every THP path fault-free.  Excluded from
            equality so configured policies still compare by settings.
        sanitizer: MemSan instance attached by the machine; ``None`` (the
            default) keeps every THP gate check-free.  Excluded from
            equality for the same reason as ``injector``.
        tracer: observability tracer attached by the machine; ``None``
            (the default) keeps every THP path emission-free — the
            zero-cost-when-off guard discipline of
            :mod:`repro.obs`.  Excluded from equality like the other
            attachments.
        hooks: an attached :class:`~repro.policy.hooks.PagePolicy`
            overriding the boolean knobs at every decision point
            (docs/policies.md).  ``None`` (the default) dispatches to
            the built-in hook derived from the knobs above — the same
            code path, pinned byte-identical to the historical
            hardwired logic.  Excluded from equality like the other
            attachments.
    """

    mode: ThpMode = ThpMode.NEVER
    fault_alloc: bool = True
    fault_compact: bool = True
    fault_reclaim: bool = True
    khugepaged_enabled: bool = True
    khugepaged_compact: bool = True
    injector: Optional[FaultInjector] = field(
        default=None, repr=False, compare=False
    )
    sanitizer: Optional["MemSanitizer"] = field(
        default=None, repr=False, compare=False
    )
    tracer: Optional["Tracer"] = field(
        default=None, repr=False, compare=False
    )
    hooks: Optional["PagePolicy"] = field(
        default=None, repr=False, compare=False
    )
    _builtin: Optional["PagePolicy"] = field(
        default=None, repr=False, compare=False, init=False
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
    # Policy-hook dispatch (docs/policies.md)
    # ------------------------------------------------------------------

    @property
    def effective_hooks(self) -> "PagePolicy":
        """The hook receiving every decision: the attached ``hooks``
        policy, or the lazily built adapter over this policy's knobs."""
        if self.hooks is not None:
            return self.hooks
        if self._builtin is None:
            from ..policy.builtin import BuiltinThpHook

            self._builtin = BuiltinThpHook(self)
        return self._builtin

    def fault_decision(
        self, ctx: "FaultContext", view: "PolicyView"
    ) -> "PageDecision":
        """Ask the hook how to back a first-touched chunk."""
        return self.effective_hooks.on_fault(ctx, view)

    def khugepaged_selection(
        self,
        candidates: tuple["PromotionCandidate", ...],
        view: "PolicyView",
    ) -> tuple["PromotionCandidate", ...]:
        """Ask the hook which eligible chunks khugepaged collapses."""
        return tuple(
            self.effective_hooks.on_khugepaged_scan(candidates, view)
        )

    # ------------------------------------------------------------------
    # Fault-injection / sanitizer gates (no-ops without attachments)
    # ------------------------------------------------------------------

    def check_promotion(
        self, vma: Optional["Vma"] = None, chunk: Optional[int] = None
    ) -> None:
        """Gate one khugepaged collapse attempt.

        Raises:
            InjectedFaultError: when the ``promotion`` site fires.
            MemSanError: when MemSan is attached and the chunk is not a
                legal collapse candidate.
        """
        if self.sanitizer is not None and vma is not None and chunk is not None:
            self.sanitizer.verify_promotion(vma, chunk)
        if self.injector is not None:
            self.injector.check(FaultSite.PROMOTION)

    def check_demotion(
        self, vma: Optional["Vma"] = None, chunk: Optional[int] = None
    ) -> None:
        """Gate one huge-page split.

        Raises:
            InjectedFaultError: when the ``demotion`` site fires.
            MemSanError: when MemSan is attached and the chunk is not
                huge-mapped.
        """
        if self.sanitizer is not None and vma is not None and chunk is not None:
            self.sanitizer.verify_demotion(vma, chunk)
        if self.injector is not None:
            self.injector.check(FaultSite.DEMOTION)

    def check_khugepaged(self) -> None:
        """Gate one background daemon scan pass (a stalled khugepaged).

        Raises:
            InjectedFaultError: when the ``khugepaged`` site fires.
        """
        if self.injector is not None:
            self.injector.check(FaultSite.KHUGEPAGED)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("thp.khugepaged.scan")
