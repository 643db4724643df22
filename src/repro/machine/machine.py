"""The simulated evaluation machine (paper Table 1, §3.1).

A :class:`Machine` bundles the substrates — physical memory across NUMA
nodes, page cache, swap device, THP policy, TLB hierarchy — and runs
instrumented workloads through them, producing
:class:`~repro.machine.metrics.RunMetrics`.

Mirroring the paper's methodology, the application is bound to one NUMA
node (``membind``); graph input files can be staged through the page
cache either on the application's node (the interfering default) or on
the remote node via tmpfs (the paper's mitigation).  Scenario state —
memory pressure (memhog), fragmentation (frag), background noise — is
applied by the experiment harness through the setup helpers before
:meth:`Machine.run`.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..analysis.sanitizer import make_sanitizer
from ..config import MachineConfig, scaled
from ..core.plan import PlacementPlan
from ..errors import CellBudgetExceededError
from ..faults.injector import FaultInjector
from ..faults.spec import FaultPlan
from ..mem.frag import Fragmenter
from ..mem.heuristics import HugePageManager
from ..mem.memhog import Memhog
from ..mem.noise import BackgroundNoise
from ..mem.page_cache import PageCache
from ..mem.physical import PhysicalMemory
from ..mem.profiler import PageProfiler
from ..mem.swap import SwapDevice
from ..mem.thp import ThpPolicy
from ..mem.vmm import VirtualMemoryManager
from ..obs.tracer import Tracer
from ..runstate.watchdog import CellWatchdog
from ..tlb.engine import make_hierarchy
from ..tlb.hierarchy import TranslationStats
from ..workloads.base import ARRAY_NAMES, Workload
from ..workloads.layout import MemoryLayout
from .metrics import RunMetrics
from .process import SimProcess
from .replay import ReplayMemo, StreamOutcome

INPUT_FILE = "graph-input"
"""Name under which the workload's input file is cached."""


class Machine:
    """A two-node machine running one graph workload at a time."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        thp: Optional[ThpPolicy] = None,
        faults: Optional[FaultPlan] = None,
        injector: Optional[FaultInjector] = None,
        sanitize: Optional[bool] = None,
        trace: "Optional[Tracer | bool]" = None,
        tlb_engine: str = "auto",
    ) -> None:
        self.config = config if config is not None else scaled()
        # Translation engine policy ("exact" | "batch" | "auto"); both
        # engines produce identical counts, so this is an execution
        # knob, never part of a cell's identity.
        self.tlb_engine = tlb_engine
        self.thp = thp if thp is not None else ThpPolicy.never()
        if injector is None:
            plan = faults if faults is not None else self.config.fault_plan
            if plan is not None and plan.enabled:
                injector = plan.make_injector()
        self.fault_injector = injector
        if injector is not None:
            # The THP engine consults the injector through its gates
            # (promotion / demotion / khugepaged stalls).
            self.thp.injector = injector
        # MemSan: sanitize=None defers to REPRO_SANITIZE / set_sanitize();
        # an explicit False wins over the environment (the overhead
        # benchmark's baseline needs a guaranteed-off machine).
        self.sanitizer = make_sanitizer(sanitize)
        self.thp.sanitizer = self.sanitizer
        self.physical = PhysicalMemory(
            self.config, injector=injector, sanitizer=self.sanitizer
        )
        self.page_cache = PageCache(self.physical.nodes, injector=injector)
        self.swap = SwapDevice(injector=injector)
        # Observability (docs/observability.md): trace=True builds a
        # fresh Tracer, trace=Tracer() attaches the caller's, None/False
        # leaves every subsystem hook at its zero-cost `None` state.
        if trace is True:
            trace = Tracer()
        elif trace is False:
            trace = None
        self.tracer: Optional[Tracer] = trace
        if trace is not None:
            # The tracer's clock is the *current* kernel ledger, read at
            # every emission — finish_setup()'s ledger swap is picked up
            # transparently.
            trace.bind_clock(lambda: self.physical.ledger.total_cycles)
            self.thp.tracer = trace
            for node in self.physical.nodes:
                node.tracer = trace
            self.page_cache.tracer = trace
            self.swap.tracer = trace
        self.hugetlb_pool = None
        # The application binds to the last node; node 0 is "remote"
        # (where tmpfs-staged input lives in the paper's setup).
        self.app_node_id = self.config.num_nodes - 1
        self.remote_node_id = 0

    @property
    def app_node(self):
        """Frame map of the node the application is bound to."""
        return self.physical.node(self.app_node_id)

    # ------------------------------------------------------------------
    # Scenario setup helpers (used by the experiment harness)
    # ------------------------------------------------------------------

    def memhog_leave_free(self, free_bytes: int) -> Memhog:
        """Pin all but ``free_bytes`` of the app node (memhog + mlock)."""
        hog = Memhog(self.app_node)
        hog.leave_free_bytes(free_bytes)
        return hog

    def fragment(self, level: float) -> Fragmenter:
        """Fragment ``level`` of the app node's free memory with
        non-movable sentinel pages (the paper's ``frag`` tool)."""
        frag = Fragmenter(self.app_node)
        frag.fragment(level)
        return frag

    def reserve_hugetlb(self, num_regions: int) -> int:
        """Boot-time hugetlbfs reservation on the app node (must run
        *before* pressure/fragmentation setup to model
        ``vm.nr_hugepages`` at boot).  Returns regions reserved."""
        from ..mem.hugetlb import HugetlbPool

        if self.hugetlb_pool is None:
            self.hugetlb_pool = HugetlbPool(self.app_node)
        return self.hugetlb_pool.reserve(num_regions)

    def scatter_noise(
        self, nonmovable_bytes: int = 0, movable_bytes: int = 0, seed: int = 0
    ) -> BackgroundNoise:
        """Plant long-running-system background noise on the app node."""
        noise = BackgroundNoise(self.app_node)
        noise.scatter(nonmovable_bytes, movable_bytes, seed=seed)
        return noise

    def finish_setup(self) -> None:
        """Mark the end of scenario setup: kernel work done so far (by
        memhog/frag/noise) is not charged to the measured run."""
        self.physical.reset_ledger()
        self.swap.reset()

    # ------------------------------------------------------------------
    # The measured run
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        plan: Optional[PlacementPlan] = None,
        load_bytes: int = 0,
        tmpfs_remote: bool = True,
        drop_cache_after_load: bool = False,
        preprocess_accesses: int = 0,
        dataset: str = "",
        access_budget: Optional[int] = None,
        watchdog: Optional[CellWatchdog] = None,
        replay: Optional[ReplayMemo] = None,
        stream_key: Optional[Hashable] = None,
    ) -> RunMetrics:
        """Execute one workload end to end and measure it.

        Phases, matching the paper's application structure (Fig. 4):

        1. *Load*: stage ``load_bytes`` of input through the page cache —
           on the remote node when ``tmpfs_remote`` (the paper's
           interference-free methodology) or on the application's node
           (the realistic default the paper warns about).
        2. *Initialize*: map and first-touch every array in the plan's
           allocation order; the THP policy allocates huge pages at fault
           time as eligibility and physical contiguity allow, then a
           khugepaged pass promotes what the fault path missed.
        3. *Compute*: run the kernel, translating its access streams
           through the TLB hierarchy and servicing swap faults if memory
           was oversubscribed.  When the THP hook is an epoch policy (a
           :class:`HugePageManager`), a :class:`PageProfiler` observes
           each iteration's trace and the policy may promote between
           iterations (khugepaged-style asynchrony); the work is charged
           to kernel time and promotions shoot down the TLB.

        The returned metrics charge phases separately; kernel-time
        speedups between runs reproduce the paper's figures.

        ``access_budget`` caps the compute phase's simulated accesses —
        the harness's runaway guard.  The check runs once per access
        stream, so a cell stops within one workload iteration of the
        budget instead of consuming a whole figure batch's time.

        ``watchdog`` (a :class:`~repro.runstate.watchdog.CellWatchdog`)
        additionally bounds the run by simulated-cycle budget and
        wall-clock deadline, checked at the same per-stream cadence
        (plus once after initialization, so an init-phase runaway is
        caught too).

        ``replay`` (a :class:`~repro.machine.replay.ReplayMemo`) with a
        ``stream_key`` that names ``workload``'s stream sequence lets
        the compute phase reuse the outcome of any stream already
        simulated under the same layout and TLB history, in this or an
        earlier run; results are byte-identical either way.

        Raises:
            CellBudgetExceededError: if the compute phase passes
                ``access_budget`` simulated accesses.
            WatchdogExpiredError: if the watchdog's cycle budget or
                wall-clock deadline is exceeded.
            InjectedFaultError: if a fault plan is armed and one of its
                sites fires during the run.
        """
        if plan is None:
            plan = PlacementPlan.none()
        if watchdog is not None:
            watchdog.start()
        ledger = self.physical.ledger
        init_start_cycles = ledger.total_cycles
        tracer = self.tracer

        # Phase 1: load.
        if tracer is not None:
            tracer.emit("phase.begin", phase="load")
        if load_bytes:
            cache_node = (
                self.remote_node_id if tmpfs_remote else self.app_node_id
            )
            self.page_cache.read_file(INPUT_FILE, load_bytes, cache_node)
        load_cycles = ledger.total_cycles - init_start_cycles
        if tracer is not None:
            tracer.emit("phase.end", phase="load", phase_cycles=load_cycles)
            tracer.emit("phase.begin", phase="init")

        # Phase 2: initialize.
        vmm = VirtualMemoryManager(self.app_node, self.thp, self.config)
        if self.config.swap_enabled:
            vmm.swap_device = self.swap
        layout = MemoryLayout(workload, plan.order)
        process = SimProcess(vmm, workload, layout, self.config)
        process.allocate_and_touch(plan, hugetlb_pool=self.hugetlb_pool)
        vmm.khugepaged_pass()
        if drop_cache_after_load:
            self.page_cache.evict_file(INPUT_FILE)
        if self.sanitizer is not None:
            # End-of-initialization sweep: the fault storm, khugepaged
            # pass and page-cache staging must leave every map coherent.
            self.sanitizer.verify_vmm(vmm)
            self.sanitizer.verify_node(self.app_node)
            self.sanitizer.verify_page_cache(self.page_cache)
        init_kernel = ledger.snapshot()
        init_counts = dict(ledger.counts)
        init_cycle_counts = dict(ledger.cycles)
        init_cycles = ledger.total_cycles - init_start_cycles
        if watchdog is not None:
            watchdog.check(init_cycles)
        if tracer is not None:
            tracer.emit(
                "phase.end",
                phase="init",
                phase_cycles=init_cycles - load_cycles,
            )
            tracer.emit("phase.begin", phase="compute")

        # Phase 3: compute.
        cost = self.config.cost
        hierarchy = make_hierarchy(self.tlb_engine, self.config.tlb)
        hierarchy.tracer = tracer
        stats = TranslationStats()
        compute_start_cycles = ledger.total_cycles
        swap_ins = 0
        swap_outs = 0
        check_swap = process.has_swapped_pages()
        profiler: Optional[PageProfiler] = None
        if isinstance(self.thp.hooks, HugePageManager):
            profiler = PageProfiler(self.config)
            for vma in process.vma_by_array.values():
                profiler.track(vma)
            vmm.profiler = profiler
        cursor = None
        if replay is not None and stream_key is not None:
            cursor = replay.cursor(stream_key, hierarchy, process, check_swap)
        vmas = process.vma_by_array
        for stream in workload.run():
            outcome = cursor.lookup() if cursor is not None else None
            if outcome is None:
                trace = process.translate(stream)
                stream = None  # and any columns a caller read
                ins = 0
                if check_swap:
                    ins, _ = process.service_swap(trace)
                delta = TranslationStats()
                hierarchy.simulate(trace, delta)
                profile = None
                if profiler is not None:
                    profile = profiler.observe(trace, vmas)
                trace = None
                if cursor is not None:
                    cursor.store(
                        StreamOutcome(
                            delta, ins, hierarchy.snapshot(), profile
                        )
                    )
            else:
                # Same charges, counts, state and event as simulating;
                # the stream's columns are never built.
                if profiler is not None:
                    if outcome.profile is None:
                        # Stored by a cell that did not profile.
                        profile = profiler.observe(
                            process.translate(stream), vmas
                        )
                        cursor.backfill(profile)
                    else:
                        profiler.replay(outcome.profile, vmas)
                stream = None
                ins = outcome.swap_ins
                if check_swap:
                    process._charge_swap(ins)
                delta = outcome.stats
                hierarchy.restore(outcome.state)
                hierarchy.emit_stream(
                    delta.total_accesses,
                    delta.total_l1_misses,
                    delta.total_walks,
                )
            stats.merge(delta)
            swap_ins += ins
            swap_outs += ins  # service_swap exchanges frame for frame
            if (
                access_budget is not None
                and stats.total_accesses > access_budget
            ):
                raise CellBudgetExceededError(
                    f"cell exceeded its access budget: "
                    f"{stats.total_accesses:,} simulated accesses > "
                    f"budget {access_budget:,}"
                )
            if watchdog is not None:
                # Same expression as the final compute_cycles, evaluated
                # incrementally; only paid when a watchdog is armed.
                watchdog.check(
                    init_cycles
                    + int(
                        stats.total_accesses * cost.mem_access
                        + stats.translation_cycles(cost)
                        + (ledger.total_cycles - compute_start_cycles)
                    )
                )
            if profiler is not None and vmm.epoch_pass():
                # Promotions rewrite page tables: full shootdown.
                hierarchy.flush()
                if cursor is not None:
                    cursor.flush()
        kernel_stall_cycles = ledger.total_cycles - compute_start_cycles

        compute_cycles = int(
            stats.total_accesses * cost.mem_access
            + stats.translation_cycles(cost)
            + kernel_stall_cycles
        )
        preprocess_cycles = int(preprocess_accesses * cost.mem_access)
        if tracer is not None:
            tracer.emit(
                "phase.end", phase="compute", phase_cycles=compute_cycles
            )

        metrics = RunMetrics(
            workload=workload.name,
            policy_label=plan.label,
            dataset=dataset,
            translation=stats,
            array_names={
                array_id: ARRAY_NAMES[array_id]
                for array_id in workload.array_ids()
            },
            compute_cycles=compute_cycles,
            init_cycles=init_cycles,
            preprocess_cycles=preprocess_cycles,
            init_kernel=init_kernel,
            compute_kernel={
                "counts": {
                    k: v - init_counts.get(k, 0)
                    for k, v in ledger.counts.items()
                    if v - init_counts.get(k, 0)
                },
                "cycles": {
                    k: v - init_cycle_counts.get(k, 0)
                    for k, v in ledger.cycles.items()
                    if v - init_cycle_counts.get(k, 0)
                },
            },
            swap_ins=swap_ins,
            swap_outs=swap_outs,
            footprint_bytes=process.footprint_bytes(),
            huge_bytes=process.total_huge_bytes(),
            huge_fraction_per_array=process.huge_fraction_per_array(),
            manager_promotions=vmm.epoch_promotions,
        )

        # Restore machine state so further runs see the same scenario.
        process.release()
        self.page_cache.evict_file(INPUT_FILE)
        if self.sanitizer is not None:
            # Teardown sweep: the released process must leave no frame
            # behind (leak detection) and the node map must be coherent.
            self.sanitizer.verify_teardown(vmm)
            self.sanitizer.verify_node(self.app_node)
        if tracer is not None:
            # Snapshot counters *before* drain() — drain resets the
            # registry along with the event buffer.
            metrics.obs_metrics = tracer.metrics.snapshot()
            metrics.trace = tracer.drain()
        return metrics

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def free_bytes(self) -> int:
        """Free memory on the application's node."""
        return self.app_node.free_bytes

    def fragmentation_level(self) -> float:
        """Current fragmentation of the app node's free memory."""
        return self.app_node.fragmentation_level()
