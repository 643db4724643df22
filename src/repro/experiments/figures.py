"""One function per paper table/figure.

Each function declares the cells behind one figure — (workload,
dataset, policy, scenario) tuples, in journal order — runs them as one
:meth:`~repro.experiments.harness.ExperimentRunner.run_cells` batch
(serial, ``--workers`` or ``--distribute``: the batch decides), and
computes a :class:`FigureResult` from the results, which line up with
the cells.  Its rows mirror the paper's bars/series.  A value derived
from a failed cell is that cell's
:class:`~repro.experiments.harness.CellFailure` (see :func:`derive`),
which renders as ``FAILED(site)``.  The ``benchmarks/`` directory wraps
these functions one-to-one; EXPERIMENTS.md records the
paper-vs-measured comparison.

Speedups are kernel-time ratios against the 4KB baseline in the *same*
scenario (the paper normalizes each figure to its baseline bars; the 4KB
baseline is unaffected by pressure/fragmentation, which
:func:`fig07_pressure_alloc_order` verifies explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..workloads.base import ARRAY_NAMES
from .harness import CellFailure, CellResult, ExperimentRunner
from .policies import POLICIES, Policy, selective_policy
from .reporting import format_table, geomean, save_figure_result
from .scenarios import (
    Scenario,
    constrained,
    fragmented,
    fresh,
    oversubscribed,
)

ALL_WORKLOADS = ("bfs", "sssp", "pagerank")
"""The paper's three applications."""


@dataclass
class FigureResult:
    """Rows reproducing one paper figure/table."""

    figure_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        """Aligned text table with heading."""
        out = format_table(
            self.rows, title=f"[{self.figure_id}] {self.title}"
        )
        if self.notes:
            out += f"\n  note: {self.notes}"
        failed = self.failed_cells()
        if failed:
            out += (
                f"\n  {len(failed)} cell(s) FAILED — values above marked "
                f"FAILED(site); see `repro` output or runner.failures."
            )
        return out

    def failed_cells(self) -> list[CellFailure]:
        """Distinct :class:`~repro.experiments.harness.CellFailure`
        records embedded in the rows (a value derived from a failed
        cell is the failure itself; see :func:`derive`)."""
        failed: list[CellFailure] = []
        for row in self.rows:
            for value in row.values():
                if isinstance(value, CellFailure) and value not in failed:
                    failed.append(value)
        return failed

    def to_json(self) -> str:
        """JSON document (id, title, notes, rows) for downstream
        plotting/analysis tooling.  Failed cells serialize as their
        ``FAILED(site)`` marker string."""
        import json

        def encode(value: object) -> object:
            try:
                return float(value)  # numpy scalars and the like
            except (TypeError, ValueError):
                return str(value)  # CellFailure -> "FAILED(site)"

        return json.dumps(
            {
                "figure_id": self.figure_id,
                "title": self.title,
                "notes": self.notes,
                "rows": self.rows,
            },
            indent=2,
            default=encode,
        )

    def save(self, directory: str) -> tuple[str, str]:
        """Write this figure's ``.txt`` and ``.json`` into ``directory``
        via the crash-safe atomic path (see :func:`~repro.experiments
        .reporting.save_figure_result`); returns the two paths."""
        return save_figure_result(self, directory)

    def series(self, key_column: str, value_column: str,
               **filters: object) -> dict:
        """Extract one plottable series: ``{key: value}`` over the rows
        matching ``filters`` (exact equality per column)."""
        out = {}
        for row in self.rows:
            if all(row.get(col) == want for col, want in filters.items()):
                out[row[key_column]] = row[value_column]
        return out


def derive(compute: Callable[[], Any], *results: CellResult) -> Any:
    """``compute()``, unless a cell it reads failed.

    ``results`` are the cells the value comes from, in the order their
    failures show through: the first failed one is returned in place of
    the value, and ``compute`` is not called."""
    for result in results:
        if not result.ok:
            return result
    return compute()


def speedup(run: CellResult, base: CellResult) -> Any:
    """``run``'s speedup over ``base``, or the failed one of the two
    (the baseline first)."""
    return derive(lambda: run.speedup_over(base), base, run)


def _run_grid(
    runner: ExperimentRunner,
    workloads: Sequence[str],
    datasets: Optional[Sequence[str]],
    variants: Sequence[tuple[Policy, Scenario]],
) -> list[tuple[str, str, list[CellResult]]]:
    """Run every (workload, dataset) pair under each (policy, scenario)
    of ``variants`` as one batch.

    The cells run pair by pair, variants in order (the journal order).
    Returns ``(workload, dataset, results)`` per pair, with ``results``
    aligned with ``variants``."""
    datasets = runner.datasets if datasets is None else datasets
    pairs = [(w, d) for w in workloads for d in datasets]
    results = runner.run_cells(
        [(w, d, policy, scenario) for w, d in pairs
         for policy, scenario in variants]
    )
    n = len(variants)
    return [
        (workload, dataset, results[i * n:(i + 1) * n])
        for i, (workload, dataset) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# Introduction characterization
# ---------------------------------------------------------------------------


def fig01_thp_speedup(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fig. 1: THP speedup on a fresh machine vs a realistic
    (pressured) machine, over the 4KB baseline."""
    result = FigureResult(
        "fig01",
        "THP speedup over 4KB pages: fresh boot vs memory pressure",
        notes="paper: large gains fresh, near-none under pressure",
    )
    pressured = constrained(0.5)
    grid = _run_grid(runner, workloads, datasets, [
        (POLICIES["base4k"], fresh()),
        (POLICIES["thp"], fresh()),
        (POLICIES["thp"], pressured),
        (POLICIES["base4k"], pressured),
    ])
    for workload, dataset, (base, thp_fresh, thp_press, base_press) in grid:
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "thp_fresh_speedup": speedup(thp_fresh, base),
                "thp_pressured_speedup": speedup(thp_press, base_press),
            }
        )
    return result


def fig02_translation_overhead(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fig. 2: fraction of 4KB-baseline runtime spent on address
    translation."""
    result = FigureResult(
        "fig02",
        "Address translation share of 4KB-baseline kernel time",
        notes="paper: translation overheads are a significant runtime share",
    )
    cost = runner.config.cost
    grid = _run_grid(
        runner, workloads, datasets, [(POLICIES["base4k"], fresh())]
    )
    for workload, dataset, (base,) in grid:
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "translation_fraction": derive(
                    lambda: base.translation.translation_cycles(cost)
                    / max(1, base.compute_cycles),
                    base,
                ),
            }
        )
    return result


def fig03_tlb_miss_rates(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fig. 3: DTLB miss rate and page-walk rate, 4KB vs THP (fresh)."""
    result = FigureResult(
        "fig03",
        "TLB miss rates: 4KB pages vs system-wide THP (fresh boot)",
        notes=(
            "paper: 12.6-47.6% DTLB miss (avg 26.3%) at 4KB, "
            "4-26.7% (avg 11.5%) with THP; most DTLB misses walk"
        ),
    )
    grid = _run_grid(runner, workloads, datasets, [
        (POLICIES["base4k"], fresh()),
        (POLICIES["thp"], fresh()),
    ])
    for workload, dataset, (base, thp) in grid:
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "dtlb_miss_4k": derive(lambda: base.dtlb_miss_rate, base),
                "walk_rate_4k": derive(lambda: base.walk_rate, base),
                "dtlb_miss_thp": derive(lambda: thp.dtlb_miss_rate, thp),
                "walk_rate_thp": derive(lambda: thp.walk_rate, thp),
            }
        )
    return result


# ---------------------------------------------------------------------------
# §4.1 data structure analysis
# ---------------------------------------------------------------------------


def fig04_access_breakdown(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fig. 4 (annotations): per-data-structure access and walk shares
    under 4KB pages."""
    result = FigureResult(
        "fig04",
        "Access and page-walk share per data structure (4KB baseline)",
        notes=(
            "paper: edge+property arrays dominate accesses; the "
            "pointer-indirect property array dominates TLB misses"
        ),
    )
    grid = _run_grid(
        runner, workloads, datasets, [(POLICIES["base4k"], fresh())]
    )
    for workload, dataset, (base,) in grid:
        if not base.ok:
            # One row per failed cell: its arrays are not known.
            result.rows.append(
                {
                    "workload": workload,
                    "dataset": dataset,
                    "array": "-",
                    "access_share": base,
                    "walk_share": base,
                }
            )
            continue
        per = base.per_array_translation()
        total_acc = max(1, base.translation.total_accesses)
        total_walks = max(1, base.translation.total_walks)
        for array_name, counts in per.items():
            result.rows.append(
                {
                    "workload": workload,
                    "dataset": dataset,
                    "array": array_name,
                    "access_share": counts["accesses"] / total_acc,
                    "walk_share": counts["walks"] / total_walks,
                }
            )
    return result


def fig05_data_structure_thp(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Fig. 5: speedup from applying THPs to individual data structures
    (BFS, no memory pressure)."""
    result = FigureResult(
        "fig05",
        "Per-data-structure madvise(MADV_HUGEPAGE) speedup over 4KB (BFS)",
        notes=(
            "paper: property-array THPs nearly match system-wide THPs; "
            "vertex/edge THPs help far less"
        ),
    )
    policies = ["madv-vertex", "madv-edge", "madv-property", "thp"]
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES[name], fresh()) for name in ["base4k", *policies]],
    )
    for workload, dataset, (base, *runs) in grid:
        row: dict = {"workload": workload, "dataset": dataset}
        for policy_name, run in zip(policies, runs):
            row[policy_name] = speedup(run, base)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def table2_datasets(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Table 2: application/input inventory with memory footprints."""
    from ..graph.datasets import load_dataset
    from ..workloads.layout import MemoryLayout
    from ..workloads.registry import create_workload, workload_needs_weights

    result = FigureResult(
        "table2",
        "Evaluation applications and inputs (scaled Table 2)",
        notes="footprints are the simulated working-set sizes",
    )
    datasets = runner.datasets if datasets is None else datasets
    for workload_name in workloads:
        for dataset_name in datasets:
            data = load_dataset(
                dataset_name, weighted=workload_needs_weights(workload_name)
            )
            workload = create_workload(workload_name, data.graph)
            layout = MemoryLayout(workload)
            result.rows.append(
                {
                    "workload": workload_name,
                    "dataset": dataset_name,
                    "paper_input": data.paper_name,
                    "vertices": data.graph.num_vertices,
                    "edges": data.graph.num_edges,
                    "footprint_bytes": layout.total_bytes,
                }
            )
    return result


# ---------------------------------------------------------------------------
# §4.3 constrained memory
# ---------------------------------------------------------------------------


def fig07_pressure_alloc_order(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
    pressure_gb: float = 0.5,
) -> FigureResult:
    """Fig. 7: THP under high memory pressure with natural vs optimized
    (property-first) allocation order."""
    result = FigureResult(
        "fig07",
        f"THP under +{pressure_gb:g}GB pressure: allocation order matters",
        notes=(
            "paper: natural order loses most THP gains; property-first "
            "nearly matches the fresh-boot ideal; 4KB baseline unaffected"
        ),
    )
    scenario = constrained(pressure_gb)
    grid = _run_grid(runner, workloads, datasets, [
        (POLICIES["base4k"], fresh()),
        (POLICIES["base4k"], scenario),
        (POLICIES["thp"], fresh()),
        (POLICIES["thp"], scenario),
        (POLICIES["thp-opt"], scenario),
    ])
    for workload, dataset, results in grid:
        base_fresh, base_press, thp_fresh, thp_nat, thp_opt = results
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "base4k_pressured": speedup(base_press, base_fresh),
                "thp_ideal": speedup(thp_fresh, base_fresh),
                "thp_natural": speedup(thp_nat, base_press),
                "thp_property_first": speedup(thp_opt, base_press),
            }
        )
    return result


def fig07b_pressure_sweep(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    levels: Sequence[float] = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
) -> FigureResult:
    """§4.3.1 sweep: 7 free-memory levels plus oversubscription."""
    result = FigureResult(
        "fig07b",
        "Memory-pressure sweep (free memory beyond WSS, in GB units)",
        notes=(
            "paper: >=2.5GB extra needed for unbounded THP gains; "
            "oversubscription slows 4KB/THP by 24.6x/23.6x"
        ),
    )
    variants = [(POLICIES["base4k"], fresh())]
    for level in levels:
        scenario = oversubscribed(-level) if level < 0 else constrained(level)
        variants += [
            (POLICIES[name], scenario) for name in ("base4k", "thp", "thp-opt")
        ]
    grid = _run_grid(runner, workloads, datasets, variants)
    for workload, dataset, (base_fresh, *runs) in grid:
        for i, level in enumerate(levels):
            base, thp, opt = runs[3 * i:3 * i + 3]
            result.rows.append(
                {
                    "workload": workload,
                    "dataset": dataset,
                    "free_gb": level,
                    "base4k": speedup(base, base_fresh),
                    "thp_natural": speedup(thp, base_fresh),
                    "thp_property_first": speedup(opt, base_fresh),
                }
            )
    return result


def page_cache_interference(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    pressure_gb: float = 1.0,
) -> FigureResult:
    """§4.3: single-use page-cache interference — input cached on the
    local node vs staged on remote tmpfs.

    The THP configuration is Linux's deferred-reclaim default (no direct
    reclaim in the fault path): exactly the setting under which the
    paper observes that cached input data "cannot be reclaimed in time"
    and huge page creation suffers during initialization, even with the
    optimized allocation order.
    """
    from ..policy.registry import get_policy as zoo_policy
    from .scenarios import page_cache_interference as local_cache

    thp_defer = zoo_policy("thp-opt-defer")
    result = FigureResult(
        "fig-pagecache",
        "Single-use page cache interference with THP allocation",
        notes=(
            "paper: page cache on the local node steals memory that "
            "huge pages needed; tmpfs-remote staging avoids it"
        ),
    )
    grid = _run_grid(runner, workloads, datasets, [
        (POLICIES["base4k"], constrained(pressure_gb)),
        (thp_defer, constrained(pressure_gb)),
        (thp_defer, local_cache(pressure_gb)),
    ])
    for workload, dataset, (base, remote, local) in grid:
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "thp_tmpfs_remote": speedup(remote, base),
                "thp_local_cache": speedup(local, base),
                "huge_frac_remote": derive(
                    lambda: remote.huge_footprint_fraction, remote
                ),
                "huge_frac_local": derive(
                    lambda: local.huge_footprint_fraction, local
                ),
            }
        )
    return result


# ---------------------------------------------------------------------------
# §4.4 fragmentation
# ---------------------------------------------------------------------------


def fig08_fragmentation(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
    frag_level: float = 0.5,
    pressure_gb: float = 3.0,
) -> FigureResult:
    """Fig. 8: THP under 50% non-movable fragmentation (low pressure),
    natural vs optimized allocation order."""
    result = FigureResult(
        "fig08",
        f"THP under {frag_level:.0%} fragmentation (+{pressure_gb:g}GB free)",
        notes=(
            "paper: fragmentation starves greedy THP; property-first "
            "order keeps most of the gain"
        ),
    )
    scenario = fragmented(frag_level, pressure_gb)
    grid = _run_grid(runner, workloads, datasets, [
        (POLICIES["base4k"], fresh()),
        (POLICIES["base4k"], scenario),
        (POLICIES["thp"], fresh()),
        (POLICIES["thp"], scenario),
        (POLICIES["thp-opt"], scenario),
    ])
    for workload, dataset, results in grid:
        base_fresh, base_frag, thp_fresh, thp_nat, thp_opt = results
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "base4k_fragmented": speedup(base_frag, base_fresh),
                "thp_ideal": speedup(thp_fresh, base_fresh),
                "thp_natural": speedup(thp_nat, base_frag),
                "thp_property_first": speedup(thp_opt, base_frag),
            }
        )
    return result


def fig09_frag_sweep(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    pressure_gb: float = 3.0,
) -> FigureResult:
    """Fig. 9: fragmentation-level sensitivity (BFS, WSS+3GB)."""
    result = FigureResult(
        "fig09",
        "Fragmentation sweep 0/25/50/75% (BFS, +3GB free)",
        notes=(
            "paper: THP drops sharply at 25% already; optimized order "
            "retains gains even at 75%"
        ),
    )
    variants = [(POLICIES["base4k"], fresh())]
    for level in levels:
        scenario = (
            constrained(pressure_gb)
            if level == 0.0
            else fragmented(level, pressure_gb)
        )
        variants += [
            (POLICIES[name], scenario) for name in ("base4k", "thp", "thp-opt")
        ]
    grid = _run_grid(runner, workloads, datasets, variants)
    for workload, dataset, (base_fresh, *runs) in grid:
        for i, level in enumerate(levels):
            base, thp, opt = runs[3 * i:3 * i + 3]
            result.rows.append(
                {
                    "workload": workload,
                    "dataset": dataset,
                    "frag_level": level,
                    "base4k": speedup(base, base_fresh),
                    "thp_natural": speedup(thp, base_fresh),
                    "thp_property_first": speedup(opt, base_fresh),
                }
            )
    return result


# ---------------------------------------------------------------------------
# §5 selective THP
# ---------------------------------------------------------------------------


def fig10_selective_thp(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
    frag_level: float = 0.5,
    pressure_gb: float = 3.0,
) -> FigureResult:
    """Fig. 10: DBG preprocessing x selective THP under low pressure and
    50% fragmentation."""
    result = FigureResult(
        "fig10",
        "DBG + selective THP under pressure and 50% fragmentation",
        notes=(
            "paper: selective s=100% beats DBG and system-wide THP; "
            "s=50% beats them for most configurations"
        ),
    )
    scenario = fragmented(frag_level, pressure_gb)
    policies: list[tuple[str, Policy]] = [
        ("dbg_4k", POLICIES["dbg"]),
        ("thp", POLICIES["thp"]),
        ("dbg_thp", POLICIES["dbg+thp"]),
        ("selective_50_dbg", selective_policy(0.5)),
        ("selective_100_dbg", selective_policy(1.0)),
    ]
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES["base4k"], scenario)]
        + [(policy, scenario) for _, policy in policies],
    )
    for workload, dataset, (base, *runs) in grid:
        row: dict = {"workload": workload, "dataset": dataset}
        for (label, _), run in zip(policies, runs):
            row[label] = speedup(run, base)
        result.rows.append(row)
    return result


def fig11_selectivity_sweep(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    frag_level: float = 0.5,
    pressure_gb: float = 3.0,
) -> FigureResult:
    """Fig. 11: sensitivity to the THP selectivity level s, with and
    without DBG preprocessing."""
    result = FigureResult(
        "fig11",
        "Selectivity sweep: s% of the property array madvised",
        notes=(
            "paper: with DBG (or natural community structure) gains "
            "saturate at small s; without it they grow ~linearly"
        ),
    )
    scenario = fragmented(frag_level, pressure_gb)
    points = [
        (reorder, fraction)
        for reorder in ("original", "dbg")
        for fraction in fractions
    ]
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES["base4k"], scenario)]
        + [
            (selective_policy(fraction, reorder=reorder), scenario)
            for reorder, fraction in points
        ],
    )
    for workload, dataset, (base, *runs) in grid:
        for (reorder, fraction), run in zip(points, runs):
            result.rows.append(
                {
                    "workload": workload,
                    "dataset": dataset,
                    "reorder": reorder,
                    "s": fraction,
                    "speedup": speedup(run, base),
                    "huge_frac_of_footprint": derive(
                        lambda: run.huge_footprint_fraction, run
                    ),
                }
            )
    return result


def dbg_overhead(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
) -> FigureResult:
    """§5.1.2: DBG preprocessing overhead relative to kernel time."""
    result = FigureResult(
        "dbg-overhead",
        "DBG preprocessing overhead (share of kernel time)",
        notes=(
            "paper: up to 2.36% for SSSP/PR (avg 1.32%); up to 16.5% "
            "for short-running BFS (avg 13%)"
        ),
    )
    grid = _run_grid(
        runner, workloads, datasets, [(POLICIES["dbg"], fresh())]
    )
    for workload, dataset, (run,) in grid:
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "preprocess_fraction": derive(
                    lambda: run.preprocess_cycles / max(1, run.kernel_cycles),
                    run,
                ),
            }
        )
    return result


def recommended_reorder(runner: ExperimentRunner, dataset: str) -> str:
    """The advisor's per-input reorder decision (§5.2: DBG helps inputs
    whose hot vertices are scattered; naturally clustered crawls keep
    their order and skip the preprocessing cost)."""
    from ..core.advisor import PageSizeAdvisor
    from ..graph.datasets import load_dataset

    graph = load_dataset(dataset).graph
    report = PageSizeAdvisor(graph, config=runner.config).advise()
    return report.plan.reorder


def headline_summary(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ALL_WORKLOADS,
    datasets: Optional[Sequence[str]] = None,
    fraction: float = 0.2,
    frag_level: float = 0.5,
    pressure_gb: float = 3.0,
) -> FigureResult:
    """Abstract/§4.5 headline: selective THP speedup over 4KB, fraction
    of unbounded-THP performance, and huge-page budget.

    Preprocessing follows the advisor's per-input decision, as the
    paper's tuning does: DBG for scattered-hub inputs (Kronecker),
    original order for naturally clustered crawls.
    """
    result = FigureResult(
        "headline",
        "Headline: degree-aware selective THP vs 4KB and unbounded THP",
        notes=(
            "paper: 1.26-1.57x over 4KB, 77.3-96.3% of unbounded THP, "
            "0.58-2.92% of memory in huge pages"
        ),
    )
    scenario = fragmented(frag_level, pressure_gb)
    datasets = runner.datasets if datasets is None else datasets
    pairs = [(w, d) for w in workloads for d in datasets]
    policies = [
        selective_policy(fraction, reorder=recommended_reorder(runner, d))
        for _, d in pairs
    ]
    cells = []
    for (workload, dataset), policy in zip(pairs, policies):
        cells += [
            (workload, dataset, POLICIES["base4k"], scenario),
            (workload, dataset, POLICIES["thp"], fresh()),
            (workload, dataset, POLICIES["base4k"], fresh()),
            (workload, dataset, policy, scenario),
        ]
    results = runner.run_cells(cells)
    speedups = []
    for i, ((workload, dataset), policy) in enumerate(zip(pairs, policies)):
        base, ideal, base_fresh, run = results[4 * i:4 * i + 4]
        selective = speedup(run, base)
        speedups.append(selective)
        result.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "reorder": policy.plan.reorder,
                "selective_speedup": selective,
                "pct_of_unbounded": derive(
                    lambda: run.speedup_over(base)
                    / max(1e-12, ideal.speedup_over(base_fresh)),
                    base, run, base_fresh, ideal,
                ),
                "huge_budget_frac": derive(
                    lambda: run.huge_footprint_fraction, run
                ),
            }
        )
    result.notes += f" | measured geomean speedup: {geomean(speedups):.3f}"
    return result


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures (DESIGN.md §4)
# ---------------------------------------------------------------------------


def ablation_alloc_order_census(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    pressure_gb: float = 0.5,
) -> FigureResult:
    """Which arrays actually got huge pages, natural vs property-first
    (the Fig. 6 narrative, measured)."""
    result = FigureResult(
        "abl-census",
        "Huge-page census per array under pressure (natural vs optimized)",
    )
    scenario = constrained(pressure_gb)
    policies = ("thp", "thp-opt")
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES[name], scenario) for name in policies],
    )
    for workload, dataset, runs in grid:
        for policy_name, run in zip(policies, runs):
            row: dict = {
                "workload": workload,
                "dataset": dataset,
                "policy": policy_name,
            }
            if run.ok:
                fractions = run.huge_fraction_per_array
                for name in ARRAY_NAMES.values():
                    if name in fractions:
                        row[name] = fractions[name]
            else:
                # Which arrays a failed cell has is not known: mark all.
                row.update(dict.fromkeys(ARRAY_NAMES.values(), run))
            result.rows.append(row)
    return result


def ablation_promotion_path(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    pressure_gb: float = 2.5,
) -> FigureResult:
    """THP variants: fault-time allocation with direct compaction vs
    khugepaged-only promotion vs a fault path without compaction and
    without khugepaged (Linux's ``defrag``/``enabled`` settings).

    The scenario carries heavy *movable* litter (a long-running node
    where most free regions need compaction), so the variants genuinely
    diverge: the no-compaction/no-daemon configuration can only use
    pristine regions and loses the property array.
    """
    from ..policy.registry import get_policy as zoo_policy

    # All three run the property-first plan (registered zoo entries),
    # so the allocation path is the only variable.
    variants = [
        ("fault+compact", zoo_policy("thp-direct")),
        ("khugepaged-only", zoo_policy("thp-khugepaged")),
        ("no-compact", zoo_policy("thp-defer")),
    ]
    result = FigureResult(
        "abl-promotion",
        "THP allocation-path ablation (movable-litter-heavy node)",
    )
    # Movable litter saturates every free region: without compaction
    # (in the fault path or the daemon) no huge page can be assembled.
    scenario = Scenario(
        name=f"constrained(+{pressure_gb:g}GB,movable-saturated)",
        pressure_gb=pressure_gb,
        noise_nonmovable_gb=1.0,
        noise_movable_gb=64.0,
    )
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES["base4k"], scenario)]
        + [(policy, scenario) for _, policy in variants],
    )
    for workload, dataset, (base, *runs) in grid:
        row: dict = {"workload": workload, "dataset": dataset}
        for (label, _), run in zip(variants, runs):
            row[label] = speedup(run, base)
            row[f"{label}_prop_huge"] = derive(
                lambda: run.huge_fraction_per_array.get("property_array", 0.0),
                run,
            )
        result.rows.append(row)
    return result


def ablation_reorder(
    runner: ExperimentRunner,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
    fraction: float = 0.4,
    frag_level: float = 0.5,
) -> FigureResult:
    """Reordering-strategy ablation for selective THP: DBG vs full
    degree sort vs random vs original."""
    result = FigureResult(
        "abl-reorder",
        f"Selective THP (s={fraction:.0%}) under alternative orderings",
    )
    scenario = fragmented(frag_level)
    reorders = ("original", "dbg", "degree-sort", "random")
    grid = _run_grid(
        runner, workloads, datasets,
        [(POLICIES["base4k"], scenario)]
        + [
            (selective_policy(fraction, reorder=reorder), scenario)
            for reorder in reorders
        ],
    )
    for workload, dataset, (base, *runs) in grid:
        row: dict = {"workload": workload, "dataset": dataset}
        for reorder, run in zip(reorders, runs):
            row[reorder] = speedup(run, base)
        result.rows.append(row)
    return result


def _run_tournament_figure(
    runner: ExperimentRunner, **kwargs
) -> FigureResult:
    """``repro figure tournament``: the policy-zoo leaderboard (see
    :func:`repro.policy.tournament.run_tournament`).  Accepts
    ``policies=`` in addition to the standard ``workloads=`` /
    ``datasets=`` keywords."""
    from ..policy.tournament import run_tournament

    return run_tournament(runner, **kwargs)


FIGURES: dict[str, Callable] = {
    "fig01": fig01_thp_speedup,
    "fig02": fig02_translation_overhead,
    "fig03": fig03_tlb_miss_rates,
    "fig04": fig04_access_breakdown,
    "fig05": fig05_data_structure_thp,
    "table2": table2_datasets,
    "fig07": fig07_pressure_alloc_order,
    "fig07b": fig07b_pressure_sweep,
    "fig08": fig08_fragmentation,
    "fig09": fig09_frag_sweep,
    "fig10": fig10_selective_thp,
    "fig11": fig11_selectivity_sweep,
    "pagecache": page_cache_interference,
    "dbg-overhead": dbg_overhead,
    "headline": headline_summary,
    "abl-census": ablation_alloc_order_census,
    "abl-promotion": ablation_promotion_path,
    "abl-reorder": ablation_reorder,
    "tournament": _run_tournament_figure,
}
"""Figure registry: CLI ``repro figure <id>`` ids to entry points (the
stable surface re-exported by :mod:`repro.api`)."""
