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
from repro.gma.producer import Producer
from repro.gma.sensors import RandomWalkSensor, TraceSensor
from repro.gma.traces import CpuTrace
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
    dynamic_attribute: str = "cpu-usage",
) -> dict[int, Producer]:
    """A producer per overlay node, sensor-backed for the dynamic attribute.

    With ``traces`` given (one per node, cycled if shorter), each node's
    dynamic attribute replays its trace — the Fig. 9 setup. Otherwise each
    node gets an independent random-walk sensor.
    """
    rng = ensure_rng(seed)
    generator = GridResourceGenerator(rng)
    producers: dict[int, Producer] = {}
    for index, node in enumerate(ring):
        resource = generator.resource(f"node-{index}")
        static = {
            name: value
            for name, value in resource.attributes.items()
            if name != dynamic_attribute
        }
        if traces is not None:
            sensor = TraceSensor(
                resource_id=resource.resource_id,
                attribute=dynamic_attribute,
                trace=traces[index % len(traces)],
            )
        else:
            sensor = RandomWalkSensor(
                resource_id=resource.resource_id,
                attribute=dynamic_attribute,
                seed=rng,
            )
        producers[node] = Producer(
            node=node,
            resource_id=resource.resource_id,
            sensors={dynamic_attribute: sensor},
            static_attributes=static,
        )
    return producers
