"""Machine configuration profiles.

A :class:`MachineConfig` fully describes the simulated machine: page sizes,
TLB geometry, NUMA-node memory capacity, and the cycle cost model used to
convert event counts into runtime estimates.

Three named profiles are provided:

``PAPER_X86``
    The paper's Table 1 system (Intel Xeon E5-2667 v3): 4KB/2MB pages,
    64+32-entry split L1 DTLB, 1536-entry STLB, 64GB per NUMA node.  Useful
    for documentation and unit tests of the geometry itself; running
    billion-edge traces through a Python simulator at this scale is not
    practical.

``SCALED``
    The default evaluation profile.  Every capacity is scaled down by
    roughly the same factor (see DESIGN.md §3) so that the *ratios* that
    drive the paper's phenomena — memory footprint versus TLB coverage, and
    huge pages needed versus huge pages available — are preserved while
    traces stay small enough to simulate in seconds.

``TINY``
    A minimal profile for fast unit tests: small TLBs, 64KB "huge" pages,
    4MB nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .faults.spec import FaultPlan
from .units import GiB, KiB, MiB, is_power_of_two


@dataclass(frozen=True)
class TlbGeometry:
    """Geometry of one set-associative TLB structure.

    Attributes:
        entries: total number of entries; must be a multiple of ``ways``.
        ways: associativity.  ``ways == entries`` models a fully
            associative structure.
    """

    entries: int
    ways: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError("TLB entries and ways must be positive")
        if self.entries % self.ways != 0:
            raise ConfigError(
                f"TLB entries ({self.entries}) must be a multiple of "
                f"ways ({self.ways})"
            )
        if not is_power_of_two(self.sets):
            raise ConfigError(
                f"number of sets ({self.sets}) must be a power of two"
            )

    @property
    def sets(self) -> int:
        """Number of sets (entries / ways)."""
        return self.entries // self.ways


@dataclass(frozen=True)
class TlbConfig:
    """The two-level translation-caching hierarchy.

    The L1 data TLB is split by page size (as on the paper's Haswell part);
    the L2 "STLB" is unified across page sizes.
    """

    l1_base: TlbGeometry
    l1_huge: TlbGeometry
    l2: TlbGeometry

    @staticmethod
    def paper_x86() -> "TlbConfig":
        """Table 1: Haswell-era split L1 DTLB and unified 1536-entry STLB."""
        return TlbConfig(
            l1_base=TlbGeometry(entries=64, ways=4),
            l1_huge=TlbGeometry(entries=32, ways=4),
            l2=TlbGeometry(entries=1536, ways=12),
        )


@dataclass(frozen=True)
class PageConfig:
    """Base and huge page sizes.

    ``huge_page_size`` must be a power-of-two multiple of
    ``base_page_size``; the ratio is the number of base frames per huge
    region (512 on x86-64 with 4KB/2MB).
    """

    base_page_size: int
    huge_page_size: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.base_page_size):
            raise ConfigError("base page size must be a power of two")
        if not is_power_of_two(self.huge_page_size):
            raise ConfigError("huge page size must be a power of two")
        if self.huge_page_size <= self.base_page_size:
            raise ConfigError("huge page must be larger than base page")

    @property
    def frames_per_huge(self) -> int:
        """Number of base frames in one huge page region."""
        return self.huge_page_size // self.base_page_size

    @property
    def base_shift(self) -> int:
        """log2(base page size)."""
        return self.base_page_size.bit_length() - 1

    @property
    def huge_shift(self) -> int:
        """log2(huge page size)."""
        return self.huge_page_size.bit_length() - 1


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for the runtime estimate.

    The kernel-compute estimate charges ``mem_access`` per memory access
    plus translation overheads; initialization charges fault handling,
    huge-page preparation (zeroing/copy), compaction work and swap I/O.
    Values are calibrated so the SCALED profile lands in the paper's
    reported speedup bands (Fig. 1: THP gives roughly 1.2-1.8x on a fresh
    machine; §4.3.1: oversubscription costs ~24x).
    """

    mem_access: float = 100.0
    """Average non-translation cost of one instrumented memory access,
    covering compute and the data-cache hierarchy."""

    l1_tlb_hit: float = 0.0
    """Extra cycles when the L1 DTLB hits (translation fully hidden)."""

    l2_tlb_hit: float = 9.0
    """Extra cycles when the L1 misses but the STLB hits."""

    page_walk: float = 140.0
    """Extra cycles for a page table walk (STLB miss)."""

    minor_fault: float = 2_500.0
    """Kernel entry/exit plus PTE setup for a base-page demand fault."""

    base_page_prep: float = 600.0
    """Zeroing/preparation cost of one base frame."""

    huge_fault_extra: float = 4_000.0
    """Extra fault-path cost of allocating a huge page (eligibility checks,
    region allocation) beyond per-frame preparation."""

    promotion_copy_per_frame: float = 900.0
    """khugepaged promotion: copy + PTE rewrite cost per constituent
    base frame."""

    compaction_per_frame: float = 1_200.0
    """Migrating one movable frame during memory compaction."""

    reclaim_per_frame: float = 800.0
    """Reclaiming (dropping/writing back) one page-cache frame."""

    swap_in: float = 5_000_000.0
    """Reading one page back from the swap device (disk I/O).  Sized so
    that oversubscribing memory by 0.5 "GB" collapses the 4KB baseline
    by roughly the paper's 24.6x (§4.3.1)."""

    swap_out: float = 3_000_000.0
    """Writing one page to the swap device."""

    tlb_flush: float = 500.0
    """Cost of a TLB shootdown (promotion/demotion/remap)."""


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of a simulated machine.

    Attributes:
        name: profile name used in reports.
        pages: base/huge page sizes.
        tlb: TLB hierarchy geometry.
        cost: cycle cost model.
        node_memory_bytes: physical memory per NUMA node.
        num_nodes: number of NUMA nodes (the paper's setup has 2: the
            application binds to one, tmpfs/page-cache may live on the
            other).
        khugepaged_scan_interval: simulated accesses between background
            promotion scans; ``0`` disables khugepaged.
        swap_enabled: whether oversubscription swaps instead of failing.
        fault_plan: optional deterministic fault-injection plan; every
            :class:`~repro.machine.machine.Machine` built from this
            config arms a fresh injector from it (see
            :mod:`repro.faults`).  ``None`` (the default) keeps the
            fault-free hot path.
    """

    name: str
    pages: PageConfig
    tlb: TlbConfig
    cost: CostModel = field(default_factory=CostModel)
    node_memory_bytes: int = 64 * MiB
    num_nodes: int = 2
    khugepaged_scan_interval: int = 1_000_000
    swap_enabled: bool = True
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("need at least one NUMA node")
        if self.node_memory_bytes % self.pages.huge_page_size != 0:
            raise ConfigError(
                "node memory must be a whole number of huge page regions"
            )

    @property
    def frames_per_node(self) -> int:
        """Base frames per NUMA node."""
        return self.node_memory_bytes // self.pages.base_page_size

    @property
    def huge_regions_per_node(self) -> int:
        """Huge page regions per NUMA node."""
        return self.node_memory_bytes // self.pages.huge_page_size

    @property
    def gb_equivalent(self) -> int:
        """Bytes corresponding to "1 GB" in the paper's 64GB-node setup.

        The paper expresses memory-pressure levels in absolute GB on a
        64GB node; scaled profiles keep the same *fractions* of node
        memory, so "+0.5GB" becomes ``0.5 * gb_equivalent`` bytes
        (exactly 0.5GB on ``paper-x86``, 0.5MB on ``scaled``).
        """
        return self.node_memory_bytes // 64


def paper_x86() -> MachineConfig:
    """The paper's Table 1 machine (one 64GB NUMA node of two)."""
    return MachineConfig(
        name="paper-x86",
        pages=PageConfig(base_page_size=4 * KiB, huge_page_size=2 * MiB),
        tlb=TlbConfig.paper_x86(),
        node_memory_bytes=64 * GiB,
    )


def scaled() -> MachineConfig:
    """Default evaluation profile (see DESIGN.md §3).

    Huge pages are 32KB (8 base frames instead of 512), TLBs are scaled
    by 8-24x, and nodes hold 64MB, so that graphs with 64K-164K vertices
    reproduce the paper's footprint-to-coverage ratios: a 1MB property
    array spans 256 base pages (vs. 32KB of L1 reach and 256KB of STLB
    reach — heavily over-committed, like the paper's 3-25GB footprints
    against 6MB of STLB reach) but only 32 huge pages (fully covered,
    like 2MB pages covering the paper's hot data).
    """
    return MachineConfig(
        name="scaled",
        pages=PageConfig(base_page_size=4 * KiB, huge_page_size=32 * KiB),
        tlb=TlbConfig(
            l1_base=TlbGeometry(entries=8, ways=4),
            l1_huge=TlbGeometry(entries=8, ways=4),
            l2=TlbGeometry(entries=64, ways=4),
        ),
        node_memory_bytes=64 * MiB,
    )


def scaled_1m() -> MachineConfig:
    """Million-vertex scale tier (the ``*-m`` datasets).

    The ``scaled`` profile's ratio discipline applied to 1M-2M-vertex
    graphs: 16x the vertices means 16x the node memory and 16x the TLB
    reach, keeping the same footprint-to-coverage regime — an 8MB
    property array spans 2048 base pages against 512KB of L1 reach and
    4MB of STLB reach (over-committed, as in the paper), but only 256
    of its 32KB huge pages (covered).  L2 associativity grows to 8 ways
    alongside capacity, mirroring how real STLBs add ways as they grow
    (Table 1's STLB is 12-way at 1536 entries).
    """
    return MachineConfig(
        name="scaled-1m",
        pages=PageConfig(base_page_size=4 * KiB, huge_page_size=32 * KiB),
        tlb=TlbConfig(
            l1_base=TlbGeometry(entries=128, ways=4),
            l1_huge=TlbGeometry(entries=128, ways=4),
            l2=TlbGeometry(entries=1024, ways=8),
        ),
        node_memory_bytes=1 * GiB,
    )


def tiny() -> MachineConfig:
    """Minimal profile for fast unit tests."""
    return MachineConfig(
        name="tiny",
        pages=PageConfig(base_page_size=4 * KiB, huge_page_size=64 * KiB),
        tlb=TlbConfig(
            l1_base=TlbGeometry(entries=4, ways=2),
            l1_huge=TlbGeometry(entries=2, ways=2),
            l2=TlbGeometry(entries=16, ways=4),
        ),
        node_memory_bytes=4 * MiB,
        khugepaged_scan_interval=10_000,
    )


PROFILES = {
    "paper-x86": paper_x86,
    "scaled": scaled,
    "scaled-1m": scaled_1m,
    "tiny": tiny,
}
"""Registry of named machine profiles."""


def get_profile(name: str) -> MachineConfig:
    """Look up a machine profile by name.

    Raises:
        ConfigError: if the profile name is unknown.
    """
    try:
        factory = PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown profile {name!r}; known: {known}") from None
    return factory()
