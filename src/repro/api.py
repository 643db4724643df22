"""repro.api — the supported public surface, in one import.

Everything here is stable across releases: scripts, notebooks and the
bundled ``examples/`` import from this module only, so internal
reorganizations (module moves, constructor consolidation like
:class:`RunConfig`) never break downstream code.  Anything *not*
re-exported here is internal and may change without notice.

Typical session::

    from repro.api import (ExperimentRunner, RunConfig, POLICIES,
                           SCENARIOS, fig07_pressure_alloc_order)

    runner = ExperimentRunner(run_config=RunConfig(workers=4,
                                                   trace=True))
    print(fig07_pressure_alloc_order(runner).render())

The surface groups into:

- **Simulation**: :class:`Machine`, :class:`ThpPolicy`,
  :class:`RunMetrics`, machine profiles.
- **Experiments**: :class:`ExperimentRunner`, :class:`RunConfig`,
  :func:`run_cells`, policies, scenarios, the figure entry points and
  the :data:`FIGURES` registry.
- **Graphs & workloads**: datasets, generators, edge-list I/O,
  reorderings, the workload registry.
- **Observability** (docs/observability.md): :class:`Tracer`, trace
  exporters and the event schema.
- **Core contribution**: the page-size advisor and placement plans.
- **Policy API** (docs/policies.md): the :class:`PagePolicy` hook
  protocol and its run-time base :class:`HugePageManager`, the
  read-only :class:`PolicyView`, the one policy registry
  (:func:`register_policy`; :func:`get_policy` resolves every
  ``--policy`` spelling) and the
  :func:`run_tournament` leaderboard harness.
"""

from .config import (
    MachineConfig,
    PROFILES,
    get_profile,
    paper_x86,
    scaled,
    scaled_1m,
    tiny,
)
from .core import (
    AdvisorReport,
    PageSizeAdvisor,
    PlacementPlan,
    huge_page_budget,
    selective_property_plan,
)
from .errors import ReproError
from .experiments import (
    ExperimentRunner,
    POLICIES,
    Policy,
    RunConfig,
    SCENARIOS,
    Scenario,
    format_table,
    run_cells,
    selective_policy,
)
from .experiments.figures import (
    FIGURES,
    FigureResult,
    ablation_alloc_order_census,
    ablation_promotion_path,
    ablation_reorder,
    dbg_overhead,
    fig01_thp_speedup,
    fig02_translation_overhead,
    fig03_tlb_miss_rates,
    fig04_access_breakdown,
    fig05_data_structure_thp,
    fig07_pressure_alloc_order,
    fig07b_pressure_sweep,
    fig08_fragmentation,
    fig09_frag_sweep,
    fig10_selective_thp,
    fig11_selectivity_sweep,
    headline_summary,
    page_cache_interference,
    recommended_reorder,
    table2_datasets,
)
from .experiments.policies import hugetlb_policy
from .experiments.scenarios import constrained, fragmented, fresh
from .faults import FaultPlan
from .graph import (
    CsrGraph,
    DATASETS,
    apply_order,
    dbg_order,
    load_dataset,
    power_law_graph,
    rmat_graph,
)
from .graph.io import load_edge_list, save_edge_list
from .graph.reorder import ORDERINGS
from .machine import Machine, RunMetrics
from .mem import HugePageManager, ThpMode, ThpPolicy
from .policy import (
    BasePagePolicy,
    FaultContext,
    PageDecision,
    PagePolicy,
    PolicyView,
    PromotionCandidate,
)
from .policy.registry import (
    get_policy,
    register_policy,
    registered_policies,
)
from .policy.tournament import run_tournament
from .policy.zoo import AdvisorHook
from .obs import (
    EVENT_NAMES,
    EVENT_SCHEMA,
    Tracer,
    read_trace_jsonl,
    summarize,
    to_chrome_trace,
    validate_trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from .chaos import ChaosPlan, run_scenarios
from .dist import DistConfig, DistCoordinator, WorkerConfig, work_loop
from .runstate import RunJournal
from .runstate.merge import (
    MergeConflictError,
    format_conflict_report,
    merge_journals,
    write_merged,
)
from .tlb import (
    TLB_ENGINES,
    BatchTranslationHierarchy,
    TranslationHierarchy,
    batch_engine_matches,
    make_hierarchy,
)
from .units import format_bytes
from .workloads import Bfs, PageRank, Sssp, create_workload

__all__ = [
    "AdvisorHook",
    "AdvisorReport",
    "BasePagePolicy",
    "BatchTranslationHierarchy",
    "Bfs",
    "ChaosPlan",
    "CsrGraph",
    "DATASETS",
    "DistConfig",
    "DistCoordinator",
    "EVENT_NAMES",
    "EVENT_SCHEMA",
    "ExperimentRunner",
    "FIGURES",
    "FaultContext",
    "FaultPlan",
    "FigureResult",
    "HugePageManager",
    "Machine",
    "MachineConfig",
    "MergeConflictError",
    "ORDERINGS",
    "POLICIES",
    "PROFILES",
    "PageDecision",
    "PagePolicy",
    "PageRank",
    "PageSizeAdvisor",
    "PlacementPlan",
    "Policy",
    "PolicyView",
    "PromotionCandidate",
    "ReproError",
    "RunConfig",
    "RunJournal",
    "RunMetrics",
    "SCENARIOS",
    "Scenario",
    "Sssp",
    "TLB_ENGINES",
    "ThpMode",
    "ThpPolicy",
    "Tracer",
    "TranslationHierarchy",
    "WorkerConfig",
    "ablation_alloc_order_census",
    "ablation_promotion_path",
    "ablation_reorder",
    "apply_order",
    "batch_engine_matches",
    "constrained",
    "create_workload",
    "dbg_order",
    "dbg_overhead",
    "fig01_thp_speedup",
    "fig02_translation_overhead",
    "fig03_tlb_miss_rates",
    "fig04_access_breakdown",
    "fig05_data_structure_thp",
    "fig07_pressure_alloc_order",
    "fig07b_pressure_sweep",
    "fig08_fragmentation",
    "fig09_frag_sweep",
    "fig10_selective_thp",
    "fig11_selectivity_sweep",
    "format_bytes",
    "format_conflict_report",
    "format_table",
    "fragmented",
    "fresh",
    "get_policy",
    "get_profile",
    "headline_summary",
    "huge_page_budget",
    "hugetlb_policy",
    "load_dataset",
    "load_edge_list",
    "make_hierarchy",
    "merge_journals",
    "page_cache_interference",
    "paper_x86",
    "power_law_graph",
    "read_trace_jsonl",
    "recommended_reorder",
    "register_policy",
    "registered_policies",
    "rmat_graph",
    "run_cells",
    "run_scenarios",
    "run_tournament",
    "save_edge_list",
    "scaled",
    "scaled_1m",
    "selective_policy",
    "selective_property_plan",
    "summarize",
    "table2_datasets",
    "tiny",
    "to_chrome_trace",
    "validate_trace_records",
    "work_loop",
    "write_chrome_trace",
    "write_merged",
    "write_trace_jsonl",
]
