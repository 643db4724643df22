"""The policy-hook interface: userspace-guided page-size management.

The paper's conclusion calls for "automatically identifying and
exploiting the asymmetric value of huge page allocations"; in the same
spirit as eBPF-mm's userspace memory-management hooks, this module
exposes the simulator's two THP decision points behind a stable,
deterministic callback interface:

- :meth:`PagePolicy.on_fault` — first-touch of an eligible chunk:
  return a :class:`PageDecision` saying whether to try a huge-page
  allocation and how hard (direct compaction / reclaim in the fault
  path);
- :meth:`PagePolicy.on_khugepaged_scan` — the background daemon's scan:
  given every collapse-eligible chunk (:class:`PromotionCandidate`),
  return the ones to promote, in order.

Determinism contract (docs/policies.md, lint rule REP013): callbacks
receive *values* (frozen contexts plus a read-only
:class:`~repro.policy.view.PolicyView`) and must derive their decision
from those alone — no wall clocks, no ambient RNG, no writes through
the view, no hidden I/O.  A policy violating the contract breaks the
simulator's bit-for-bit reproducibility invariants (identical journal
bytes serial vs parallel, resumable sweeps), which is why the contract
is machine-checked.

The built-in ``never`` / ``always`` / ``madvise`` modes are
:class:`~repro.mem.thp.ThpPolicy` itself: a policy value without
``hooks`` is its own hook, so the hook path is the *only* path — pinned
byte-identical to the pre-hook tree by ``tests/test_policy_golden.py``.
Hooks are shared by every cell a policy runs: they keep no per-run
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids cycles)
    from .view import PolicyView


@dataclass(frozen=True)
class PageDecision:
    """Outcome of one fault-time decision.

    Attributes:
        huge: attempt to back the faulting chunk with a huge page.
        allow_compaction: permit direct compaction in the fault path
            (``defrag = always`` semantics) when assembling the region.
        allow_reclaim: permit dropping reclaimable page-cache frames in
            the fault path.
    """

    huge: bool
    allow_compaction: bool = True
    allow_reclaim: bool = True


BASE_PAGES = PageDecision(huge=False)
"""The decision that faults the chunk in as base pages."""


@dataclass(frozen=True)
class FaultContext:
    """What the fault handler knows when a chunk is first touched.

    Attributes:
        vma_name: name of the mapping ("property_array", ...).
        chunk: huge-page-sized chunk index within the mapping.
        advised: the chunk's ``MADV_HUGEPAGE`` flag.
        chunk_full: the chunk spans a complete huge page worth of
            base pages (partial tail chunks are never huge-eligible).
        partially_mapped: some of the chunk's pages are already
            resident, so a huge mapping would require a collapse, which
            the fault path never performs.
    """

    vma_name: str
    chunk: int
    advised: bool
    chunk_full: bool
    partially_mapped: bool


@dataclass(frozen=True)
class PromotionCandidate:
    """One collapse-eligible chunk offered to the khugepaged scan.

    Candidates are base-mapped, fully resident, full-size chunks, in
    address order (VMA creation order, then chunk index) — exactly the
    kernel daemon's scan order.

    Attributes:
        vma_index: position of the owning VMA in the scan (stable for
            the duration of one scan; used by the VMM to act on the
            selection).
        vma_name: name of the owning mapping.
        chunk: chunk index within the mapping.
        advised: the chunk's ``MADV_HUGEPAGE`` flag.
        raw_index: position in the raw (vma, chunk) walk, counting
            ineligible chunks too — preserves the legacy scan-cap
            semantics bit-for-bit.
    """

    vma_index: int
    vma_name: str
    chunk: int
    advised: bool
    raw_index: int = 0


@runtime_checkable
class PagePolicy(Protocol):
    """The stable hook interface for page-size management policies.

    Implementations must be deterministic and side-effect-free (see the
    module docstring); ``name`` identifies the policy in traces.
    """

    name: str

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        """Decide how to back a first-touched chunk."""
        ...  # pragma: no cover - protocol

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        """Pick the candidates to collapse, in promotion order."""
        ...  # pragma: no cover - protocol


class BasePagePolicy:
    """Convenience base: a do-nothing policy to subclass.

    Defaults: base pages at fault time, no promotions — override only
    the decision points the policy cares about.
    """

    name = "noop"

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
