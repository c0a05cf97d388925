"""Synthetic Grid resource populations.

Models the paper's motivating setting: a fleet of heterogeneous machines
with static capabilities (cpu-speed, memory-size, disk-size) and dynamic
status (cpu-usage, load). Distributions follow common Grid inventory
shapes: a few discrete CPU-speed tiers, power-of-two memory sizes, and
heavy-tailed utilization.
"""

from __future__ import annotations

import numpy as np

from repro.chord.ring import StaticRing
from repro.gma.producer import DYNAMIC_ATTRIBUTE, Producer
from repro.gma.traces import CpuTrace, TraceGenerator
from repro.maan.attrs import AttributeSchema, Resource
from repro.util.rng import ensure_rng

__all__ = ["default_schemas", "GridResourceGenerator", "make_producers"]

_CPU_SPEED_TIERS = (1.4, 1.8, 2.2, 2.6, 2.8, 3.0, 3.2)  # GHz
_MEMORY_TIERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)  # GB
_DISK_TIERS = (40.0, 80.0, 160.0, 320.0, 640.0)  # GB


def default_schemas() -> dict[str, AttributeSchema]:
    """The attribute schemas used throughout the examples and benchmarks."""
    return {
        "cpu-speed": AttributeSchema("cpu-speed", low=0.5, high=5.0),
        "memory-size": AttributeSchema("memory-size", low=0.25, high=64.0),
        "disk-size": AttributeSchema("disk-size", low=10.0, high=2000.0),
        "cpu-usage": AttributeSchema("cpu-usage", low=0.0, high=100.0),
    }


class GridResourceGenerator:
    """Draws synthetic machine inventories.

    Parameters
    ----------
    seed:
        Reproducibility seed.
    """

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self._rng = ensure_rng(seed)

    def resource(self, resource_id: str) -> Resource:
        """One machine with static capabilities and a utilization snapshot."""
        rng = self._rng
        return Resource(
            resource_id=resource_id,
            attributes={
                "cpu-speed": float(rng.choice(_CPU_SPEED_TIERS)),
                "memory-size": float(rng.choice(_MEMORY_TIERS)),
                "disk-size": float(rng.choice(_DISK_TIERS)),
                # Utilization: beta(2, 3) skews toward moderate loads with a
                # tail of hot machines.
                "cpu-usage": float(100.0 * rng.beta(2.0, 3.0)),
            },
        )

    def fleet(self, count: int, prefix: str = "node") -> list[Resource]:
        """``count`` machines named ``{prefix}-{index}``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.resource(f"{prefix}-{index}") for index in range(count)]


def make_producers(
    ring: StaticRing,
    traces: list[CpuTrace] | None = None,
    seed: int | np.random.Generator | None = None,
) -> dict[int, Producer]:
    """A producer per overlay node: a drawn inventory plus a CPU-usage trace.

    With ``traces`` given (one per node, cycled if shorter), node ``i``
    replays ``traces[i]`` — the Fig. 9 setup. Otherwise the traces are a
    non-identical :class:`~repro.gma.traces.TraceGenerator` fleet drawn from
    ``seed``.
    """
    rng = ensure_rng(seed)
    if traces is None:
        traces = TraceGenerator(seed=rng).generate_fleet(len(ring), identical=False)
    generator = GridResourceGenerator(rng)
    producers: dict[int, Producer] = {}
    for index, node in enumerate(ring):
        drawn = generator.resource(f"node-{index}")
        static = {
            name: value
            for name, value in drawn.attributes.items()
            if name != DYNAMIC_ATTRIBUTE
        }
        producers[node] = Producer(
            node=node,
            resource=Resource(drawn.resource_id, static),
            trace=traces[index % len(traces)],
        )
    return producers
