#!/usr/bin/env python
"""Quickstart: stand up a monitored Grid and ask it questions.

Builds a 128-node P-GMA deployment (Chord overlay with identifier probing,
MAAN index, balanced DAT aggregation), attaches a synthetic producer to
every node, and exercises the two consumer workflows from the paper:
resource *discovery* (range queries) and global *monitoring* (aggregates).

Run:  python examples/quickstart.py
"""

from repro import GridMonitor, MonitorConfig
from repro.core.analysis import imbalance_factor
from repro.maan import MultiAttributeQuery, RangeQuery
from repro.workloads import default_schemas, make_producers


def main() -> None:
    # 1. Deploy the stack: overlay + index + aggregation trees.
    config = MonitorConfig(
        n_nodes=128, bits=32, id_strategy="probing", dat_scheme="balanced", seed=42
    )
    monitor = GridMonitor(config, default_schemas())
    for producer in make_producers(monitor.ring, seed=42).values():
        monitor.attach_producer(producer)

    hops = monitor.register_all()
    print(f"deployed {len(monitor.ring)} nodes; "
          f"registered {monitor.index.total_records()} records in {hops} hops")

    # 2. Discovery: find lightly loaded, well-provisioned machines.
    result = monitor.index.multi_attribute_query(MultiAttributeQuery.of(
        RangeQuery("cpu-usage", 0.0, 40.0), RangeQuery("memory-size", 4.0, 64.0)
    ))
    print(f"\ndiscovery: {len(result.resources)} machines with <40% load and "
          f">=4GB memory ({result.total_hops} routing hops)")
    for resource in result.resources[:5]:
        attrs = resource.attributes
        print(f"  {resource.resource_id}: cpu-usage={attrs['cpu-usage']:.1f}% "
              f"memory={attrs['memory-size']:.0f}GB")

    # 3. Monitoring: global aggregates over the balanced DAT.
    print("\nglobal monitoring (one DAT round each):")
    for aggregate in ("avg", "max", "min", "std"):
        outcome = monitor.aggregate("cpu-usage", aggregate)
        print(f"  {aggregate:>4}(cpu-usage) = {outcome.value:8.3f}   "
              f"[root={outcome.root}, messages={outcome.total_messages}]")

    # 4. The load-balance story: per-node message cost of that round.
    outcome = monitor.aggregate("cpu-usage", "avg")
    loads = outcome.message_loads
    print(f"\nload balance: max={max(loads.values())} msgs/node, "
          f"imbalance factor={imbalance_factor(loads):.2f} "
          f"(1.0 would be perfectly even)")
    print(f"tree: height={outcome.tree.height}, "
          f"max branching={outcome.tree.stats().max_branching}")


if __name__ == "__main__":
    main()
