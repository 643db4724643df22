"""Online page-size autotuning: the paper's future work, implemented.

The conclusion of the paper calls for "automated software and hardware
co-designed runtime systems" that combine *application behaviour
knowledge* with *real-time memory system resource tracking*.
:class:`OnlineAdvisor` is exactly that runtime, built from the pieces
this library already has:

- application knowledge: push-based graph kernels concentrate their
  irregular traffic in the property array, so only the per-vertex
  arrays are promotion targets;
- runtime tracking: the machine's access profile, read through the
  :class:`~repro.policy.view.PolicyView`, covers the first
  ``warmup_iterations`` access streams;
- action: after warmup, the advisor ranks the target arrays' chunks by
  observed hotness and promotes the smallest set covering
  ``coverage_target`` of the observed property traffic (bounded by
  ``max_chunks``), using the khugepaged promotion machinery — paying
  copy costs and TLB shootdowns like any run-time promotion.

Unlike the static :class:`~repro.core.advisor.PageSizeAdvisor`, this
needs no preprocessing and no prior knowledge of the input graph: it
discovers the hot pages of *this* run, including skew that only emerges
from the traversal order.  The price is the unaccelerated warmup and
the promotion copies — which is the paper's point about fault-time
allocation being preferable when the programmer already knows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..mem.heuristics import HugePageManager
from ..policy.hooks import PromotionCandidate
from ..workloads.base import ARRAY_NAMES, ARRAY_PROPERTY, ARRAY_RANK

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..policy.view import PolicyView


class OnlineAdvisor(HugePageManager):
    """Profile-then-promote runtime for the per-vertex arrays."""

    name = "autotuner"

    def __init__(
        self,
        target_array_ids: tuple[int, ...] = (ARRAY_PROPERTY, ARRAY_RANK),
        warmup_iterations: int = 1,
        coverage_target: float = 0.85,
        max_chunks: Optional[int] = None,
        promotions_per_pass: int = 64,
    ) -> None:
        """
        Args:
            target_array_ids: arrays eligible for promotion (application
                knowledge: the pointer-indirect per-vertex arrays).
            warmup_iterations: access streams observed before acting.
            coverage_target: fraction of observed target-array accesses
                the promoted chunks must cover, in (0, 1].
            max_chunks: hard cap on promoted chunks (huge-page budget);
                ``None`` = bounded only by coverage.
            promotions_per_pass: promotion rate limit per iteration
                (khugepaged-style batching).

        Raises:
            ValueError: on a coverage outside (0, 1], a negative
                ``max_chunks`` or a rate limit below 1.
        """
        super().__init__(promotions_per_pass)
        if not 0 < coverage_target <= 1:
            raise ValueError(
                f"coverage must be in (0, 1], got {coverage_target}"
            )
        if max_chunks is not None and max_chunks < 0:
            raise ValueError(f"max_chunks must be >= 0, got {max_chunks}")
        self.target_array_ids = target_array_ids
        self.warmup_iterations = warmup_iterations
        self.coverage_target = coverage_target
        self.max_chunks = max_chunks

    def on_iteration(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        """Adaptive re-planning: the hot set is recomputed from the
        *cumulative* profile every pass, so early iterations' sparse
        samples (a BFS run's first frontiers touch only a sliver of the
        graph) are corrected as observations accumulate."""
        if view.epoch < self.warmup_iterations:
            return ()
        budget = self.promotions_per_pass
        if self.max_chunks is not None:
            budget = min(budget, self.max_chunks - view.epoch_promotions)
        eligible = {(c.vma_name, c.chunk): c for c in candidates}
        picked: list[PromotionCandidate] = []
        for key in self._hot_set(view):
            if len(picked) >= budget:
                break
            # Already-huge chunks are not candidates but still count
            # toward coverage.
            if key in eligible:
                picked.append(eligible[key])
        return tuple(picked)

    def _hot_set(self, view: "PolicyView") -> list[tuple[str, int]]:
        """The smallest hottest-first chunk set covering the coverage
        target of all observed target-array accesses (huge or not)."""
        mapped = view.vma_names()
        entries: list[tuple[int, str, int]] = []
        total = 0
        for array_id in self.target_array_ids:
            name = ARRAY_NAMES[array_id]
            if name not in mapped:
                continue
            counts = view.chunk_counts(name)
            total += int(counts.sum())
            for chunk in np.flatnonzero(counts > 0):
                entries.append((int(counts[chunk]), name, int(chunk)))
        entries.sort(key=lambda item: -item[0])
        hot: list[tuple[str, int]] = []
        covered = 0
        for count, name, chunk in entries:
            if total and covered / total >= self.coverage_target:
                break
            hot.append((name, chunk))
            covered += count
        return hot
