"""The built-in THP modes, expressed as a policy hook.

:class:`BuiltinThpHook` reproduces the boolean-knob semantics of
:class:`~repro.mem.thp.ThpPolicy` (``mode`` / ``fault_alloc`` /
``fault_compact`` / ``fault_reclaim`` / ``khugepaged_*``) through the
:class:`~repro.policy.hooks.PagePolicy` interface, so ``never`` /
``always`` / ``madvise`` run on exactly the same code path as any zoo
policy.  The equivalence is pinned byte-for-byte (figure and journal
bytes) against the pre-hook tree by ``tests/test_policy_golden.py`` —
any change to the decision logic here is a behavioral change and must
re-justify those goldens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .hooks import FaultContext, PageDecision, PromotionCandidate

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids cycles)
    from ..mem.thp import ThpPolicy
    from .view import PolicyView


class BuiltinThpHook:
    """Hook adapter over a :class:`~repro.mem.thp.ThpPolicy`'s knobs."""

    def __init__(self, thp: "ThpPolicy") -> None:
        self._thp = thp
        self.name = f"builtin:{thp.mode.value}"

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        thp = self._thp
        huge = (
            thp.fault_alloc
            and ctx.chunk_full
            and thp.wants_huge(ctx.advised)
            and not ctx.partially_mapped
        )
        return PageDecision(
            huge=huge,
            allow_compaction=thp.fault_compact,
            allow_reclaim=thp.fault_reclaim,
        )

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        thp = self._thp
        return tuple(
            candidate
            for candidate in candidates
            if thp.wants_huge(candidate.advised)
        )
