"""repro — a simulated-substrate reproduction of
"The Implications of Page Size Management on Graph Analytics"
(Manocha et al., IISWC 2022).

The package builds, from scratch, every system the paper's
characterization depends on — physical memory with fragmentation and
compaction, a Linux-style transparent-huge-page policy, a two-level TLB
model, instrumented push-based graph kernels, DBG reordering — and the
paper's contribution on top: application-aware selective huge-page
management.

Quickstart::

    from repro import Machine, ThpPolicy, load_dataset, create_workload

    data = load_dataset("kron-s")
    machine = Machine(thp=ThpPolicy.always())
    metrics = machine.run(create_workload("bfs", data.graph),
                          dataset=data.name)
    print(metrics.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results; the ``benchmarks/`` directory regenerates
every table and figure.
"""

from .config import (
    MachineConfig,
    PROFILES,
    get_profile,
    paper_x86,
    scaled,
    tiny,
)
from .core import (
    AdvisorReport,
    PageSizeAdvisor,
    PlacementPlan,
    huge_page_budget,
    selective_property_plan,
)
from .errors import (
    AddressError,
    AllocationError,
    CellBudgetExceededError,
    ConfigError,
    DatasetError,
    ExperimentError,
    GraphError,
    InjectedFaultError,
    JournalError,
    OutOfMemoryError,
    ReproError,
    WatchdogExpiredError,
    WorkloadError,
)
from .faults import FaultInjector, FaultPlan, FaultSite, FaultSpec
from .graph import (
    CsrGraph,
    DATASETS,
    apply_order,
    dbg_order,
    load_dataset,
    power_law_graph,
    rmat_graph,
)
from .hostalloc import pin_mmap_threshold as _pin_mmap_threshold
from .machine import Machine, RunMetrics
from .mem import ThpMode, ThpPolicy
from .runstate import CellWatchdog, RunJournal, spec_fingerprint
from .workloads import (
    AllocationOrder,
    Bfs,
    PageRank,
    Sssp,
    create_workload,
)

_pin_mmap_threshold()  # before any dataset is built

__version__ = "1.0.0"

__all__ = [
    "AddressError",
    "AdvisorReport",
    "AllocationError",
    "AllocationOrder",
    "Bfs",
    "CellBudgetExceededError",
    "CellWatchdog",
    "ConfigError",
    "CsrGraph",
    "DATASETS",
    "DatasetError",
    "ExperimentError",
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "GraphError",
    "InjectedFaultError",
    "JournalError",
    "Machine",
    "MachineConfig",
    "OutOfMemoryError",
    "PROFILES",
    "PageRank",
    "PageSizeAdvisor",
    "PlacementPlan",
    "ReproError",
    "RunJournal",
    "RunMetrics",
    "Sssp",
    "ThpMode",
    "ThpPolicy",
    "WatchdogExpiredError",
    "WorkloadError",
    "apply_order",
    "create_workload",
    "dbg_order",
    "get_profile",
    "huge_page_budget",
    "load_dataset",
    "paper_x86",
    "power_law_graph",
    "rmat_graph",
    "scaled",
    "selective_property_plan",
    "spec_fingerprint",
    "tiny",
    "__version__",
]
