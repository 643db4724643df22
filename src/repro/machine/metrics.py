"""Per-run measurements.

A :class:`RunMetrics` captures everything the paper's experiment scripts
record for one application run (Appendix §6): kernel computation time,
initialization (user + kernel memory-management) time, TLB miss rates,
page-walk rates, and — beyond the paper's perf counters — exact huge-page
usage per data structure, which the paper could only infer.

Cycle counts are deterministic functions of the simulated event counts
and the profile's cost model; speedups between runs of the same workload
and dataset are therefore exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..tlb.hierarchy import TranslationStats


@dataclass
class RunMetrics:
    """Results of one simulated workload run."""

    workload: str
    policy_label: str
    dataset: str = ""

    # Translation behaviour (the paper's Fig. 2/3 outputs).
    translation: TranslationStats = field(default_factory=TranslationStats)
    array_names: dict[int, str] = field(default_factory=dict)

    # Cycle accounting.
    compute_cycles: int = 0
    init_cycles: int = 0
    preprocess_cycles: int = 0

    # Memory-management activity.
    init_kernel: dict[str, dict[str, int]] = field(default_factory=dict)
    compute_kernel: dict[str, dict[str, int]] = field(default_factory=dict)
    swap_ins: int = 0
    swap_outs: int = 0

    # Huge page usage (the paper's §4.5 / abstract budget numbers).
    footprint_bytes: int = 0
    huge_bytes: int = 0
    huge_fraction_per_array: dict[str, float] = field(default_factory=dict)

    # Run-time huge-page management: promotions made by an epoch
    # policy's on_iteration steps.  No shipped policy demotes at run
    # time; the demotion count stays a (zero) journal field.
    manager_promotions: int = 0
    manager_demotions: int = 0

    # Harness resilience: attempts taken to produce this result and the
    # deterministic simulated backoff charged for the failed ones.
    attempts: int = 1
    retry_cycles: int = 0

    # Free-form context attached by the harness (scenario parameters).
    context: dict[str, Any] = field(default_factory=dict)

    # Observability (docs/observability.md): structured events drained
    # from the machine's tracer and the counter/gauge snapshot taken at
    # drain time.  Both empty when tracing is off.
    trace: list[dict[str, Any]] = field(default_factory=list)
    obs_metrics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True — this cell produced metrics (see ``CellFailure.ok``)."""
        return True

    @property
    def total_cycles(self) -> int:
        """End-to-end runtime: preprocessing + init + kernel compute,
        plus any retry backoff the harness charged."""
        return (
            self.preprocess_cycles
            + self.init_cycles
            + self.compute_cycles
            + self.retry_cycles
        )

    @property
    def kernel_cycles(self) -> int:
        """The paper's primary metric ("total kernel computation time"):
        algorithm execution including any swap stalls, excluding data
        loading/initialization.  Preprocessing (DBG) is charged here, as
        the paper "account[s] for the preprocessing times when measuring
        application runtimes" (§5.1.2).  Retry backoff cycles (injected
        faults survived by the harness) are charged here too — a retried
        cell is slower, exactly as a retried real run would be."""
        return self.compute_cycles + self.preprocess_cycles + self.retry_cycles

    @property
    def dtlb_miss_rate(self) -> float:
        """First-level data TLB miss rate (Fig. 3 bar heights)."""
        return self.translation.l1_miss_rate

    @property
    def walk_rate(self) -> float:
        """Page-walk (STLB miss) rate (Fig. 3 striped portion)."""
        return self.translation.walk_rate

    @property
    def huge_footprint_fraction(self) -> float:
        """Fraction of the application footprint backed by huge pages
        (the 0.58–2.92% headline statistic)."""
        if self.footprint_bytes == 0:
            return 0.0
        return self.huge_bytes / self.footprint_bytes

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """Kernel-time speedup of this run relative to ``baseline``."""
        if self.kernel_cycles == 0:
            return float("inf")
        return baseline.kernel_cycles / self.kernel_cycles

    def per_array_translation(self) -> dict[str, dict[str, int]]:
        """Access/miss/walk counts broken down by data structure."""
        return self.translation.per_array(self.array_names)

    def summary(self) -> dict[str, Any]:
        """A flat dict for table rendering and JSON export."""
        return {
            "workload": self.workload,
            "dataset": self.dataset,
            "policy": self.policy_label,
            "kernel_cycles": self.kernel_cycles,
            "init_cycles": self.init_cycles,
            "total_cycles": self.total_cycles,
            "accesses": self.translation.total_accesses,
            "dtlb_miss_rate": round(self.dtlb_miss_rate, 4),
            "walk_rate": round(self.walk_rate, 4),
            "huge_bytes": self.huge_bytes,
            "huge_footprint_fraction": round(
                self.huge_footprint_fraction, 4
            ),
            "swap_ins": self.swap_ins,
            "swap_outs": self.swap_outs,
            "attempts": self.attempts,
            "retry_cycles": self.retry_cycles,
        }
