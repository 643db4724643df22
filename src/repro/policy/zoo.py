"""The policy zoo: every named page-management policy.

Each entry is a builder that materializes an
:class:`~repro.experiments.policies.Policy` (THP configuration with its
hook + placement plan), registered with the
:mod:`~repro.policy.registry` under a stable name so ``--policy
NAME[:k=v,...]`` works anywhere a policy is accepted.

The shipped zoo spans the paper's design space:

- the paper's fixed bars, under their historical names (``base4k``,
  ``thp``, ``thp-opt``, ``madv-*``, ``dbg``, ``dbg+thp``; see
  :data:`~repro.experiments.policies.POLICIES`);
- ``never`` / ``greedy-always`` / ``madvise`` — the three Linux THP
  modes (aliases of the paper's ``base4k`` / ``thp`` /
  ``madv-property`` bars);
- ``khugepaged`` — fault-time allocation off, background promotion on
  (Linux's ``defrag=defer`` flavour);
- ``paper-selective`` — DBG + madvise on the leading ``s`` fraction of
  the property array (the paper's §5 optimization);
- ``advisor`` — the :class:`~repro.core.advisor.PageSizeAdvisor`'s
  graph-derived plan (dataset-aware: needs the input graph);
- ``hawkeye`` — run-time promotion by exact access counts;
- ``hawkeye-bits`` — run-time promotion by *sampled access bits*
  (HawkEye's practical signal: periodic page-table access-bit scans
  see touched-vs-untouched, not counts);
- ``ingens`` — run-time promotion by utilization threshold;
- ``autotuner`` — the online profile-then-promote runtime
  (:class:`~repro.core.autotuner.OnlineAdvisor`).

Explicit parameters fold into the materialized policy's *name* (the
registry renames it to the canonical spec, e.g.
``autotuner:coverage=0.9``), which flows into journal spec fingerprints
— two parameterizations of the same zoo entry are distinct cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..mem.heuristics import HotnessManager, UtilizationManager
from .hooks import FaultContext, PageDecision, PromotionCandidate
from .registry import register_policy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .view import PolicyView


class AdvisorHook:
    """:class:`~repro.policy.hooks.PagePolicy` of the static advisor.

    The :class:`~repro.core.advisor.PageSizeAdvisor` front-loads its
    intelligence into the placement plan (which arrays/prefixes carry
    ``MADV_HUGEPAGE``), so its run-time hook is the kernel's advised
    semantics: back advised full chunks with huge pages at fault time,
    collapse advised candidates in khugepaged passes.  Expressed as a
    first-class hook (rather than the ``madvise`` knob) so the advisor
    participates in the policy API like any zoo member — its decisions
    surface as ``policy.*`` trace events under ``--trace``.
    """

    name = "advisor"

    def on_fault(
        self, ctx: FaultContext, view: "PolicyView"
    ) -> PageDecision:
        return PageDecision(
            huge=ctx.chunk_full and ctx.advised and not ctx.partially_mapped
        )

    def on_khugepaged_scan(
        self,
        candidates: Sequence[PromotionCandidate],
        view: "PolicyView",
    ) -> Sequence[PromotionCandidate]:
        return tuple(c for c in candidates if c.advised)


class SampledHotnessManager(HotnessManager):
    """HawkEye-style promotion from *sampled access bits*.

    The exact-count :class:`~repro.mem.heuristics.HotnessManager` is a
    best-case oracle; real deployments scan page-table access bits
    periodically and only learn *which* pages were touched since the
    last scan, at a sampling granularity.  This manager quantizes the
    profiler's counts down to that signal: a chunk's hotness is the
    number of its sampled base pages with the access bit set (every
    ``sample_stride``-th page is scanned), not its access count; ties
    rank in address order, like the kernel's scan.  Deterministic by
    construction — the "sampling" is a fixed stride, never an RNG (rule
    REP013).
    """

    name = "hawkeye-bits"

    def __init__(
        self,
        sample_stride: int = 8,
        min_hot_pages: int = 1,
        promotions_per_pass: int = 8,
    ) -> None:
        super().__init__(
            min_accesses=min_hot_pages,
            promotions_per_pass=promotions_per_pass,
        )
        if sample_stride < 1:
            raise ValueError(
                f"sample_stride must be >= 1, got {sample_stride}"
            )
        self.sample_stride = sample_stride

    def chunk_hotness(self, vma_name: str, view: "PolicyView") -> np.ndarray:
        """Per-chunk count of sampled pages with their access bit set."""
        touched = view.page_counts(vma_name) > 0
        sampled = np.zeros_like(touched)
        sampled[:: self.sample_stride] = touched[:: self.sample_stride]
        frames_per_huge = view.frames_per_huge
        nchunks = -(-sampled.size // frames_per_huge)
        padded = np.zeros(nchunks * frames_per_huge, dtype=np.int64)
        padded[: sampled.size] = sampled
        return padded.reshape(nchunks, frames_per_huge).sum(axis=1)


# ----------------------------------------------------------------------
# Zoo builders.  Each returns an experiments.Policy; dataset-aware
# builders accept (dataset, config) via the registry's materialization.
# ----------------------------------------------------------------------


_FIXED_SUMMARIES = {
    "base4k": "THP off: the paper's 4KB baseline",
    "thp": "system-wide THP, natural allocation order",
    "thp-opt": "system-wide THP, property-first allocation order",
    "madv-vertex": "madvise THP on the vertex array only",
    "madv-edge": "madvise THP on the edge array only",
    "madv-values": "madvise THP on the edge-values array only",
    "madv-property": "madvise THP on the property array only",
    "dbg": "DBG reordering with 4KB pages",
    "dbg+thp": "DBG reordering with system-wide THP",
}
"""The paper's fixed bars: registry name -> ``repro policies`` summary."""


def _fixed_builder(key: str):
    def build():
        from ..experiments.policies import POLICIES

        return POLICIES[key]

    return build


_FIXED_BUILDERS = {key: _fixed_builder(key) for key in _FIXED_SUMMARIES}


def _khugepaged_builder():
    from ..core.plan import PlacementPlan
    from ..experiments.policies import Policy
    from ..mem.thp import ThpMode, ThpPolicy

    return Policy(
        name="khugepaged",
        thp=ThpPolicy(mode=ThpMode.ALWAYS, fault_alloc=False),
        plan=PlacementPlan(label="khugepaged"),
    )


def _paper_selective_builder(s: float = 0.5, reorder: str = "dbg"):
    from ..experiments.policies import selective_policy

    return selective_policy(
        float(s), reorder="none" if reorder is None else str(reorder)
    )


def _advisor_builder(
    coverage: float = 0.8,
    *,
    dataset: Optional[str] = None,
    config=None,
):
    """The static advisor's plan for ``dataset`` (graph-derived)."""
    from ..core.advisor import PageSizeAdvisor
    from ..errors import ReproError
    from ..experiments.policies import Policy
    from ..graph.datasets import load_dataset
    from ..mem.thp import ThpMode, ThpPolicy

    if dataset is None:
        raise ReproError(
            "policy 'advisor' derives its plan from the input graph; "
            "select it where a dataset is known (repro run/figure/"
            "tournament), not as a dataset-independent policy"
        )
    graph = load_dataset(dataset).graph
    report = PageSizeAdvisor(
        graph, config=config, coverage_target=float(coverage)
    ).advise()
    return Policy(
        name=report.plan.label,
        thp=ThpPolicy(mode=ThpMode.MADVISE, hooks=AdvisorHook()),
        plan=report.plan,
    )


def _epoch_policy(name: str, hook):
    """A run-time (epoch) policy: the kernel stays passive (no
    fault-time allocation, no khugepaged) and ``hook``'s
    ``on_iteration`` owns promotion."""
    from ..core.plan import PlacementPlan
    from ..experiments.policies import Policy
    from ..mem.thp import ThpMode, ThpPolicy

    return Policy(
        name=name,
        thp=ThpPolicy(
            mode=ThpMode.ALWAYS, fault_alloc=False,
            khugepaged_enabled=False, hooks=hook,
        ),
        plan=PlacementPlan(label=name),
    )


def _hawkeye_builder(per_pass: int = 8):
    return _epoch_policy(
        "hawkeye", HotnessManager(promotions_per_pass=int(per_pass))
    )


def _hawkeye_bits_builder(stride: int = 8, per_pass: int = 8):
    stride = int(stride)
    return _epoch_policy(
        f"hawkeye-bits(k={stride})",
        SampledHotnessManager(
            sample_stride=stride, promotions_per_pass=int(per_pass)
        ),
    )


def _ingens_builder(threshold: float = 0.9, per_pass: int = 8):
    threshold = float(threshold)
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return _epoch_policy(
        f"ingens(u={threshold:.0%})",
        UtilizationManager(
            utilization_threshold=threshold,
            promotions_per_pass=int(per_pass),
        ),
    )


def _autotuner_builder(
    coverage: float = 0.85, max_chunks: Optional[int] = None
):
    from ..core.autotuner import OnlineAdvisor

    coverage = float(coverage)
    return _epoch_policy(
        f"autotuner(c={coverage:.0%})",
        OnlineAdvisor(
            coverage_target=coverage,
            max_chunks=None if max_chunks is None else int(max_chunks),
        ),
    )


def _hugetlb_builder(fraction: float = 1.0, reorder: str = "dbg"):
    from ..experiments.policies import hugetlb_policy

    return hugetlb_policy(
        float(fraction), reorder="none" if reorder is None else str(reorder)
    )


# THP allocation-path variants (the ablation figures' configurations,
# promoted to first-class zoo entries): all run the property-first plan
# so the allocation-path difference is the only variable.


def _thp_direct_builder():
    from ..experiments.policies import POLICIES, Policy
    from ..mem.thp import ThpPolicy

    return Policy("thp-direct", ThpPolicy.always(), POLICIES["thp-opt"].plan)


def _thp_khugepaged_builder():
    from ..experiments.policies import POLICIES, Policy
    from ..mem.thp import ThpMode, ThpPolicy

    return Policy(
        "thp-khugepaged",
        ThpPolicy(mode=ThpMode.ALWAYS, fault_alloc=False),
        POLICIES["thp-opt"].plan,
    )


def _thp_defer_builder():
    from ..experiments.policies import POLICIES, Policy
    from ..mem.thp import ThpMode, ThpPolicy

    return Policy(
        "thp-defer",
        ThpPolicy(
            mode=ThpMode.ALWAYS,
            fault_compact=False,
            fault_reclaim=False,
            khugepaged_enabled=False,
        ),
        POLICIES["thp-opt"].plan,
    )


def _thp_opt_defer_builder():
    from ..experiments.policies import POLICIES, Policy
    from ..mem.thp import ThpMode, ThpPolicy

    return Policy(
        "thp-opt-defer",
        ThpPolicy(
            mode=ThpMode.ALWAYS,
            fault_reclaim=False,
            khugepaged_compact=False,
        ),
        POLICIES["thp-opt"].plan,
    )


def register_zoo() -> None:
    """Register the shipped zoo (idempotent; called at registry import)."""
    for key, summary in _FIXED_SUMMARIES.items():
        register_policy(key, _FIXED_BUILDERS[key], summary=summary)
    register_policy(
        "never", _FIXED_BUILDERS["base4k"],
        summary="THP off: the paper's 4KB baseline (alias of base4k)",
    )
    register_policy(
        "greedy-always", _FIXED_BUILDERS["thp"],
        summary="system-wide THP, natural order (alias of thp)",
    )
    register_policy(
        "madvise", _FIXED_BUILDERS["madv-property"],
        summary="programmer-advised THP on the property array "
        "(alias of madv-property)",
    )
    register_policy(
        "khugepaged", _khugepaged_builder,
        summary="no fault-time allocation; background promotion only",
    )
    register_policy(
        "paper-selective", _paper_selective_builder,
        summary="DBG + madvise leading s of the property array "
        "(params: s, reorder)",
    )
    register_policy(
        "advisor", _advisor_builder,
        summary="graph-derived selective plan from PageSizeAdvisor "
        "(params: coverage; dataset-aware)",
        dataset_aware=True,
    )
    register_policy(
        "hawkeye", _hawkeye_builder,
        summary="run-time promotion by exact access counts "
        "(params: per_pass)",
    )
    register_policy(
        "hawkeye-bits", _hawkeye_bits_builder,
        summary="run-time promotion by sampled access bits "
        "(params: stride, per_pass)",
    )
    register_policy(
        "ingens", _ingens_builder,
        summary="run-time promotion by utilization threshold "
        "(params: threshold, per_pass)",
    )
    register_policy(
        "autotuner", _autotuner_builder,
        summary="online profile-then-promote runtime "
        "(params: coverage, max_chunks)",
    )
    register_policy(
        "hugetlb", _hugetlb_builder,
        summary="boot-time hugetlbfs reservation for the property "
        "array prefix (params: fraction, reorder)",
    )
    register_policy(
        "thp-direct", _thp_direct_builder,
        summary="fault-time THP with direct compaction, "
        "property-first order",
    )
    register_policy(
        "thp-khugepaged", _thp_khugepaged_builder,
        summary="khugepaged-only promotion, property-first order",
    )
    register_policy(
        "thp-defer", _thp_defer_builder,
        summary="no fault compaction, no daemon (pristine regions "
        "only), property-first order",
    )
    register_policy(
        "thp-opt-defer", _thp_opt_defer_builder,
        summary="deferred reclaim (no fault reclaim, no daemon "
        "compaction), property-first order",
    )


register_zoo()
