"""Unit tests for machine configuration profiles."""

import pytest

from repro.config import (
    CostModel,
    MachineConfig,
    PageConfig,
    TlbConfig,
    TlbGeometry,
    get_profile,
    paper_x86,
    scaled,
    tiny,
)
from repro.errors import ConfigError
from repro.units import GiB, KiB, MiB


class TestTlbGeometry:
    def test_sets(self):
        geo = TlbGeometry(entries=64, ways=4)
        assert geo.sets == 16

    def test_fully_associative(self):
        geo = TlbGeometry(entries=8, ways=8)
        assert geo.sets == 1

    def test_rejects_non_divisible_ways(self):
        with pytest.raises(ConfigError):
            TlbGeometry(entries=10, ways=4)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            TlbGeometry(entries=12, ways=2)  # 6 sets

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            TlbGeometry(entries=0, ways=1)
        with pytest.raises(ConfigError):
            TlbGeometry(entries=4, ways=0)


class TestPageConfig:
    def test_frames_per_huge(self):
        pages = PageConfig(base_page_size=4 * KiB, huge_page_size=2 * MiB)
        assert pages.frames_per_huge == 512

    def test_shifts(self):
        pages = PageConfig(base_page_size=4 * KiB, huge_page_size=2 * MiB)
        assert pages.base_shift == 12
        assert pages.huge_shift == 21

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            PageConfig(base_page_size=5000, huge_page_size=2 * MiB)

    def test_rejects_huge_not_larger(self):
        with pytest.raises(ConfigError):
            PageConfig(base_page_size=4 * KiB, huge_page_size=4 * KiB)


class TestProfiles:
    def test_paper_profile_matches_table1(self):
        cfg = paper_x86()
        assert cfg.pages.base_page_size == 4 * KiB
        assert cfg.pages.huge_page_size == 2 * MiB
        assert cfg.tlb.l1_base.entries == 64
        assert cfg.tlb.l1_huge.entries == 32
        assert cfg.tlb.l2.entries == 1536
        assert cfg.node_memory_bytes == 64 * GiB
        assert cfg.gb_equivalent == GiB

    def test_scaled_preserves_coverage_ratio_regime(self):
        """Footprint/STLB-reach ratio in the paper's regime (>= 4x for a
        1MB property array)."""
        cfg = scaled()
        stlb_reach = cfg.tlb.l2.entries * cfg.pages.base_page_size
        property_bytes = 131_072 * 8
        assert property_bytes / stlb_reach >= 4
        # And the huge-page STLB reach covers the property array.
        huge_reach = cfg.tlb.l2.entries * cfg.pages.huge_page_size
        assert huge_reach >= property_bytes

    def test_scaled_gb_equivalent(self):
        assert scaled().gb_equivalent == MiB

    def test_node_memory_is_whole_regions(self):
        for make in (paper_x86, scaled, tiny):
            cfg = make()
            assert (
                cfg.node_memory_bytes % cfg.pages.huge_page_size == 0
            )
            assert cfg.frames_per_node == (
                cfg.huge_regions_per_node * cfg.pages.frames_per_huge
            )

    def test_get_profile(self):
        assert get_profile("scaled").name == "scaled"
        assert get_profile("tiny").name == "tiny"
        with pytest.raises(ConfigError):
            get_profile("nope")

    def test_rejects_partial_region_node(self):
        with pytest.raises(ConfigError):
            MachineConfig(
                name="bad",
                pages=PageConfig(4 * KiB, 64 * KiB),
                tlb=tiny().tlb,
                node_memory_bytes=64 * KiB + 4 * KiB,
            )

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            MachineConfig(
                name="bad",
                pages=PageConfig(4 * KiB, 64 * KiB),
                tlb=tiny().tlb,
                node_memory_bytes=4 * MiB,
                num_nodes=0,
            )


class TestCostModel:
    def test_defaults_are_ordered(self):
        """Costs must respect the hardware hierarchy: L1 < L2 < walk <
        fault < swap."""
        cost = CostModel()
        assert cost.l1_tlb_hit < cost.l2_tlb_hit < cost.page_walk
        assert cost.page_walk < cost.minor_fault
        assert cost.minor_fault < cost.swap_out <= cost.swap_in
