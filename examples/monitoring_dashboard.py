#!/usr/bin/env python
"""A 2-hour monitoring dashboard: the P-GMA daemon loop.

Runs the P-GMA stack for a full trace window, one step per trace minute:
dynamic MAAN registrations refresh every five steps, three global
aggregates recompute every step, and the histories render as sparklines.

Run:  python examples/monitoring_dashboard.py
"""

from repro import GridMonitor, MonitorConfig
from repro.gma.traces import TraceGenerator
from repro.workloads import default_schemas, make_producers


def spark(values, width: int = 60) -> str:
    blocks = " .:-=+*#%@"
    numeric = [float(v) for v in values]
    if len(numeric) > width:
        stride = len(numeric) / width
        numeric = [numeric[int(i * stride)] for i in range(width)]
    lo, hi = min(numeric), max(numeric)
    span = (hi - lo) or 1.0
    return "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in numeric
    )


def main() -> None:
    n = 128
    monitor = GridMonitor(MonitorConfig(n_nodes=n, seed=63), default_schemas())
    traces = TraceGenerator(seed=63).generate_fleet(n, identical=False)
    for producer in make_producers(monitor.ring, traces=traces, seed=63).values():
        monitor.attach_producer(producer)
    monitor.register_all()

    steps, step = 120, 60.0  # 2 hours at one-minute steps
    aggregates = ("avg", "max", "quantile")  # quantile: median via the grid sketch
    history: dict[str, list[float]] = {aggregate: [] for aggregate in aggregates}
    refresh_hops = 0
    print(f"driving {n}-node deployment for {steps} minutes of trace time...")
    for index in range(1, steps + 1):
        now = index * step
        if index % 5 == 0:
            refresh_hops += monitor.register_all(now)
        for aggregate, values in history.items():
            values.append(monitor.aggregate("cpu-usage", aggregate, t=now).value)

    print(f"\nindex refreshes consumed {refresh_hops} routing hops "
          f"({monitor.index.total_records()} records stay current)\n")
    for aggregate, values in history.items():
        label = {"avg": "mean", "max": "peak", "quantile": "p50 "}[aggregate]
        print(f"cpu {label} |{spark(values)}|  now={values[-1]:6.2f}")

    print("\n(each aggregate is one balanced-DAT round per minute: "
          f"{steps} x 3 rounds x {n - 1} messages, max "
          f"{monitor.aggregate('cpu-usage').tree.stats().max_branching} "
          "messages on any node per round)")


if __name__ == "__main__":
    main()
