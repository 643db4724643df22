"""Heuristic huge-page managers: the state-of-the-art baselines.

The paper's related-work section (§6) contrasts its programmer-guided
approach with kernel-side heuristic managers:

- **Ingens-style** (`UtilizationManager`): promote a region once enough
  of its base pages have been touched (a utilization threshold), in
  address order, rate-limited per pass.  Utilization says nothing about
  *access frequency*, which is why it spends huge pages on the
  sequentially-touched CSR arrays as readily as on the hot property
  array.
- **HawkEye-style** (`HotnessManager`): rank candidate regions by
  observed access counts and promote the hottest first, rate-limited
  per pass.  With an exact access signal this is the strongest
  app-unaware policy — it converges on the property array, but only
  after paying profiling latency and promotion copies at run time,
  whereas the programmer-guided plan had the huge pages in place at
  initialization.

Managers are :class:`~repro.policy.hooks.PagePolicy` hooks with one
more decision point, :meth:`HugePageManager.on_iteration`, which runs
between workload iterations (the paper's khugepaged-like asynchrony).
The machine profiles every access stream, offers the collapse-eligible
chunks, and promotes the selection in order; promotions invalidate the
TLB.  Like every hook, a manager only selects: it observes the machine
through the read-only :class:`~repro.policy.view.PolicyView` and never
touches the VMM itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..policy.hooks import (
    BASE_PAGES,
    DemoteCandidate,
    FaultContext,
    PageDecision,
    PromotionCandidate,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..policy.view import PolicyView


def _scored(
    candidates: Sequence[PromotionCandidate],
    score: Callable[[str], np.ndarray],
) -> list[tuple[float, PromotionCandidate]]:
    """Pair each candidate with its mapping's per-chunk score, calling
    ``score(vma_name)`` once per mapping; keeps the candidates' order."""
    per_vma: dict[str, np.ndarray] = {}
    pairs = []
    for candidate in candidates:
        scores = per_vma.get(candidate.vma_name)
        if scores is None:
            scores = per_vma[candidate.vma_name] = score(candidate.vma_name)
        pairs.append((scores[candidate.chunk], candidate))
    return pairs


class HugePageManager(ABC):
    """Base of the run-time (epoch) policies.

    The kernel stays passive — base pages at fault time, nothing
    volunteered to khugepaged, threshold splitting in demote scans — and
    :meth:`on_iteration` makes every promotion decision.
    """

    name = "epoch"

    def __init__(self, promotions_per_pass: int = 8) -> None:
        if promotions_per_pass < 1:
            raise ValueError(
                f"promotions per pass must be >= 1, got {promotions_per_pass}"
            )
        self.promotions_per_pass = promotions_per_pass

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        return BASE_PAGES

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        return ()

    def on_demote_scan(
        self,
        candidates: Sequence[DemoteCandidate],
        view: "PolicyView",
    ) -> Sequence[DemoteCandidate]:
        return tuple(
            c for c in candidates if c.utilization < c.threshold
        )

    @abstractmethod
    def on_iteration(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        """Pick the chunks to promote after one workload iteration.

        ``candidates`` are the collapse-eligible chunks in address
        order (as for khugepaged); the machine promotes the selection in
        order and stops at the first one that finds no huge region.
        """


class UtilizationManager(HugePageManager):
    """Ingens-style: promote well-utilized regions in address order."""

    name = "ingens"

    def __init__(
        self,
        utilization_threshold: float = 0.9,
        promotions_per_pass: int = 8,
    ) -> None:
        super().__init__(promotions_per_pass)
        self.utilization_threshold = utilization_threshold

    def on_iteration(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        picked = [
            candidate
            for util, candidate in _scored(candidates, view.chunk_utilization)
            if util >= self.utilization_threshold
        ]
        return tuple(picked[: self.promotions_per_pass])


class HotnessManager(HugePageManager):
    """HawkEye-style: promote the most-accessed regions first."""

    name = "hawkeye"

    def __init__(
        self,
        min_accesses: int = 1,
        promotions_per_pass: int = 8,
    ) -> None:
        super().__init__(promotions_per_pass)
        self.min_hotness = min_accesses

    def chunk_hotness(self, vma_name: str, view: "PolicyView") -> np.ndarray:
        """Per-chunk hotness of one mapping: its access count."""
        return view.chunk_counts(vma_name)

    def on_iteration(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        """Rank across *all* VMAs jointly (HawkEye's global hotness
        list, ties in address order) and pick the global hottest."""
        ranked = [
            (hotness, candidate)
            for hotness, candidate in _scored(
                candidates, lambda name: self.chunk_hotness(name, view)
            )
            if hotness >= self.min_hotness
        ]
        ranked.sort(key=lambda item: -item[0])
        return tuple(c for _, c in ranked[: self.promotions_per_pass])
