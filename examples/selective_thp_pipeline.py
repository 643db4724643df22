#!/usr/bin/env python3
"""The paper's contribution, end to end (§5): advisor-driven selective
huge-page management on a fragmented, memory-constrained machine.

Pipeline:

1. The :class:`PageSizeAdvisor` inspects the graph's degree profile and
   decides whether DBG preprocessing is needed and what fraction ``s``
   of the property array deserves ``MADV_HUGEPAGE``.
2. The plan runs on a machine with WSS+3GB free and 50% non-movable
   fragmentation — the paper's Fig. 10 scenario.
3. The result is compared against the 4KB baseline, greedy system-wide
   THP in the same scenario, and unbounded THP on a fresh machine.

Run:  python examples/selective_thp_pipeline.py [dataset]
"""

import sys

from repro.api import (
    ExperimentRunner,
    Machine,
    POLICIES,
    PageSizeAdvisor,
    PlacementPlan,
    Policy,
    ThpPolicy,
    fragmented,
    fresh,
    load_dataset,
)


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "kron-s"
    data = load_dataset(dataset_name)
    runner = ExperimentRunner()

    report = PageSizeAdvisor(data.graph, config=runner.config).advise()
    print(f"advisor report for {data.name}:")
    print(f"  hot vertices        : {report.hot_vertex_fraction:.1%} of V")
    print(f"  access coverage     : {report.access_coverage:.1%}")
    print(f"  natural clustering  : {report.natural_clustering:.1%}")
    print(f"  DBG recommended     : {report.reorder_recommended}")
    print(f"  advise fraction s   : {report.advise_fraction:.1%}")
    print(f"  huge pages needed   : {report.huge_pages_needed}")
    print(f"  huge-page budget    : {report.budget_fraction:.2%} of footprint")

    scenario = fragmented(0.5)
    advisor_policy = Policy(
        name="advisor", thp=ThpPolicy.madvise(), plan=report.plan
    )
    base = runner.run_cell("bfs", dataset_name, POLICIES["base4k"], scenario)
    greedy = runner.run_cell("bfs", dataset_name, POLICIES["thp"], scenario)
    chosen = runner.run_cell("bfs", dataset_name, advisor_policy, scenario)
    ideal = runner.run_cell("bfs", dataset_name, POLICIES["thp"], fresh())
    base_fresh = runner.run_cell(
        "bfs", dataset_name, POLICIES["base4k"], fresh()
    )

    print(f"\nBFS on {dataset_name}, +3GB free, 50% fragmented:")
    print(f"  greedy THP speedup over 4KB : {greedy.speedup_over(base):.2f}x")
    print(f"  advisor plan speedup        : {chosen.speedup_over(base):.2f}x")
    ideal_speedup = ideal.speedup_over(base_fresh)
    share = chosen.speedup_over(base) / ideal_speedup
    print(f"  unbounded THP (fresh boot)  : {ideal_speedup:.2f}x")
    print(f"  -> advisor reaches {share:.1%} of unbounded performance")
    print(
        f"  -> using huge pages for only "
        f"{chosen.huge_footprint_fraction:.2%} of application memory"
    )


if __name__ == "__main__":
    main()
