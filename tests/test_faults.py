"""Tests for the fault-injection subsystem: specs, plan parsing, the
injector's deterministic triggers, and the wired injection sites."""

import pytest

from repro.config import tiny
from repro.errors import ConfigError, InjectedFaultError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    FaultSpec,
    SITES_BY_NAME,
)
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.mem.page_cache import PageCache
from repro.mem.physical import NodeMemory, PhysicalMemory
from repro.mem.stats import KernelLedger
from repro.mem.swap import SwapDevice
from repro.mem.thp import ThpMode, ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.workloads.registry import create_workload


def plan_for(text, seed=0):
    return FaultPlan.parse(text, seed=seed)


class TestFaultSpec:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC)
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, probability=0.5, after_n=3)

    def test_probability_range(self):
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, probability=1.5)
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, probability=-0.1)
        # 0.0 is legal: an armed-but-never-firing spec (overhead probes).
        FaultSpec(site=FaultSite.ALLOC, probability=0.0)

    def test_counter_triggers_validated(self):
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, after_n=-1)
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, every_nth=0)
        with pytest.raises(ConfigError):
            FaultSpec(site=FaultSite.ALLOC, probability=1.0, max_fires=0)
        # after_n=0 is legal: fail from the very first evaluation.
        FaultSpec(site=FaultSite.ALLOC, after_n=0)

    def test_trigger_label(self):
        assert "p=" in FaultSpec(
            site=FaultSite.ALLOC, probability=0.5
        ).trigger_label
        assert "after" in FaultSpec(
            site=FaultSite.ALLOC, after_n=3
        ).trigger_label


class TestFaultPlanParse:
    def test_bare_site_means_certain(self):
        plan = plan_for("compaction")
        (spec,) = plan.specs
        assert spec.site is FaultSite.COMPACTION
        assert spec.probability == 1.0

    def test_probability_trigger(self):
        (spec,) = plan_for("alloc:0.25").specs
        assert spec.site is FaultSite.ALLOC
        assert spec.probability == 0.25

    def test_counter_triggers(self):
        plan = plan_for("swap-out:after=10,swap-in:every=3")
        assert plan.specs[0].after_n == 10
        assert plan.specs[1].every_nth == 3

    def test_max_fires(self):
        (spec,) = plan_for("reclaim:1.0:max=2").specs
        assert spec.max_fires == 2

    def test_every_site_name_parses(self):
        for name in SITES_BY_NAME:
            (spec,) = plan_for(name).specs
            assert spec.site.value == name

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            plan_for("warp-core:0.5")

    def test_malformed_trigger_rejected(self):
        with pytest.raises(ConfigError):
            plan_for("alloc:sometimes")
        with pytest.raises(ConfigError):
            plan_for("alloc:after=x")

    def test_empty_plan_disabled(self):
        plan = FaultPlan(specs=())
        assert not plan.enabled
        assert plan_for("alloc").enabled


class TestInjectorTriggers:
    def test_certain_fires_first_evaluation(self):
        injector = plan_for("alloc:1.0").make_injector()
        with pytest.raises(InjectedFaultError) as exc:
            injector.check(FaultSite.ALLOC)
        assert exc.value.site is FaultSite.ALLOC
        assert exc.value.hit == 1
        assert exc.value.evaluation == 1

    def test_other_sites_unaffected(self):
        injector = plan_for("alloc:1.0").make_injector()
        injector.check(FaultSite.COMPACTION)  # no spec -> no fire
        assert injector.fires() == 0

    def test_after_n(self):
        # after=3: the first three evaluations succeed, then wear-out.
        injector = plan_for("swap-out:after=3").make_injector()
        for _ in range(3):
            injector.check(FaultSite.SWAP_OUT)
        with pytest.raises(InjectedFaultError) as exc:
            injector.check(FaultSite.SWAP_OUT)
        assert exc.value.evaluation == 4
        # Wear-out: keeps failing on every later evaluation.
        with pytest.raises(InjectedFaultError):
            injector.check(FaultSite.SWAP_OUT)

    def test_every_nth(self):
        injector = plan_for("reclaim:every=2").make_injector()
        fired = []
        for i in range(1, 7):
            try:
                injector.check(FaultSite.RECLAIM)
            except InjectedFaultError:
                fired.append(i)
        assert fired == [2, 4, 6]

    def test_max_fires_caps_transient_glitch(self):
        injector = plan_for("alloc:1.0:max=1").make_injector()
        with pytest.raises(InjectedFaultError):
            injector.check(FaultSite.ALLOC)
        # The glitch is spent: later evaluations pass (retry succeeds).
        injector.check(FaultSite.ALLOC)
        injector.check(FaultSite.ALLOC)
        assert injector.fires(FaultSite.ALLOC) == 1

    def test_probability_seed_determinism(self):
        plan = plan_for("alloc:0.3", seed=7)

        def fire_pattern():
            injector = plan.make_injector()
            pattern = []
            for _ in range(200):
                try:
                    injector.check(FaultSite.ALLOC)
                    pattern.append(False)
                except InjectedFaultError:
                    pattern.append(True)
            return pattern, list(injector.fire_log)

        first = fire_pattern()
        second = fire_pattern()
        assert first == second
        assert any(first[0])  # p=0.3 over 200 draws fires at least once

    def test_different_seeds_differ(self):
        def pattern(seed):
            injector = plan_for("alloc:0.3", seed=seed).make_injector()
            out = []
            for _ in range(100):
                try:
                    injector.check(FaultSite.ALLOC)
                    out.append(0)
                except InjectedFaultError:
                    out.append(1)
            return out

        assert pattern(1) != pattern(2)

    def test_summary(self):
        injector = plan_for("alloc:1.0:max=1").make_injector()
        with pytest.raises(InjectedFaultError):
            injector.check(FaultSite.ALLOC)
        injector.check(FaultSite.ALLOC)
        summary = injector.summary()
        assert summary["alloc"]["evaluations"] == 2
        assert summary["alloc"]["fires"] == 1


class TestWiredSites:
    def make_node(self, plan):
        cfg = tiny()
        node = NodeMemory(
            0, cfg, KernelLedger(cost=cfg.cost),
            injector=plan.make_injector(),
        )
        return node, node.register_owner(object())

    def test_alloc_site(self):
        node, owner = self.make_node(plan_for("alloc:1.0"))
        with pytest.raises(InjectedFaultError) as exc:
            node.alloc_frames(1, owner)
        assert exc.value.site is FaultSite.ALLOC
        # Nothing was allocated before the fault surfaced.
        assert node.free_frame_count == node.num_frames

    def test_zero_count_alloc_not_evaluated(self):
        node, owner = self.make_node(plan_for("alloc:1.0"))
        node.alloc_frames(0, owner)  # early return, no evaluation

    def test_compaction_site_only_on_assembly(self):
        from repro.mem.frag import Fragmenter

        node, owner = self.make_node(plan_for("compaction:1.0"))
        # Pristine regions need no assembly: no evaluation, no fault.
        assert node.alloc_huge_region(owner) is not None
        # Fragment so no free region is intact; the next huge allocation
        # must assemble one — the canonical compaction injection point.
        Fragmenter(node).fragment(1.0)
        with pytest.raises(InjectedFaultError) as exc:
            node.alloc_huge_region(owner)
        assert exc.value.site is FaultSite.COMPACTION

    def test_swap_sites_fire_before_counters(self):
        swap = SwapDevice(injector=plan_for("swap-out:1.0").make_injector())
        with pytest.raises(InjectedFaultError):
            swap.page_out()
        assert swap.pages_out == 0
        swap.page_in()  # swap-in unaffected
        assert swap.pages_in == 1

    def test_staging_site(self):
        cfg = tiny()
        physical = PhysicalMemory(cfg)
        cache = PageCache(
            physical.nodes, injector=plan_for("staging:1.0").make_injector()
        )
        with pytest.raises(InjectedFaultError) as exc:
            cache.read_file("input", 4096, 0)
        assert exc.value.site is FaultSite.STAGING
        # Direct I/O bypasses the cache and therefore the site.
        assert cache.read_file("input", 4096, 0, direct_io=True) == 0

    def test_promotion_gates_in_vmm(self):
        cfg = tiny()
        node = NodeMemory(
            0,
            cfg,
            KernelLedger(cost=cfg.cost),
            injector=plan_for("promotion:1.0").make_injector(),
        )
        vmm = VirtualMemoryManager(node, ThpPolicy.always(), cfg)
        vma = vmm.mmap("a", 2 * cfg.pages.huge_page_size)
        vmm.touch(vma)  # fault-time huge pages are not promotions
        assert (vma.huge_region >= 0).all()
        assert vmm.khugepaged_pass() == 0  # other gates unaffected
        vmm.demote_chunk(vma, 0)
        with pytest.raises(InjectedFaultError) as exc:
            vmm.promote_chunk(vma, 0)
        assert exc.value.site is FaultSite.PROMOTION
        assert vma.huge_region[0] == -1


class TestMachineIntegration:
    def test_machine_builds_injector_from_plan(self, small_graph):
        machine = Machine(
            tiny(), ThpPolicy.always(), faults=plan_for("staging:1.0")
        )
        assert machine.fault_injector is not None
        workload = create_workload("bfs", small_graph)
        with pytest.raises(InjectedFaultError) as exc:
            machine.run(workload, load_bytes=4096)
        assert exc.value.site is FaultSite.STAGING

    def test_machine_run_identical_with_disarmed_plan(self, small_graph):
        baseline = Machine(tiny(), ThpPolicy.always()).run(
            create_workload("bfs", small_graph)
        )
        armed = Machine(
            tiny(), ThpPolicy.always(), faults=plan_for("alloc:0.0")
        ).run(create_workload("bfs", small_graph))
        assert armed.summary() == baseline.summary()

    def test_shared_thp_policy_keeps_machines_apart(self):
        """One policy value backs a faulted, traced, sanitized machine
        and a plain one; no injector, tracer or sanitizer crosses."""
        # khugepaged, not the fault path, makes the huge pages, so every
        # run passes the khugepaged and promotion gates.
        thp = ThpPolicy(mode=ThpMode.ALWAYS, fault_alloc=False)
        graph = uniform_graph(num_vertices=16384, num_edges=65536, seed=5)

        def run(machine):
            return machine.run(create_workload("bfs", graph))

        alone = Machine(tiny(), thp, sanitize=True)
        run(alone)
        assert alone.sanitizer.checks > 0
        armed = Machine(
            tiny(),
            thp,
            faults=plan_for("khugepaged:1.0"),
            sanitize=True,
            trace=True,
        )
        plain = Machine(tiny(), thp, sanitize=False)
        assert run(plain).huge_bytes > 0  # armed's injector stays home
        assert armed.tracer.events == []  # plain emits into no tracer
        with pytest.raises(InjectedFaultError) as exc:
            run(armed)
        assert exc.value.site is FaultSite.KHUGEPAGED
        assert armed.tracer.events  # armed traces into its own
        sanitized = Machine(tiny(), thp, sanitize=True)
        Machine(tiny(), thp, sanitize=False)
        run(sanitized)  # a later plain machine strips none of its checks
        assert sanitized.sanitizer.checks == alone.sanitizer.checks

    def test_config_fault_plan_is_picked_up(self):
        from dataclasses import replace

        cfg = replace(tiny(), fault_plan=plan_for("alloc:1.0"))
        machine = Machine(cfg)
        assert machine.fault_injector is not None

    def test_injector_is_threaded_everywhere(self):
        injector = plan_for("alloc:0.0").make_injector()
        machine = Machine(tiny(), injector=injector)
        assert machine.swap.injector is injector
        assert machine.page_cache.injector is injector
        assert all(n.injector is injector for n in machine.physical.nodes)
