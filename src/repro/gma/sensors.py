"""Sensor layer of P-GMA (paper Sec. 2.1).

"A sensor monitors the status of one or more resources and generates events
to producers. The sensor could be simply some scripts that collect the
system status from the /proc file system." — here sensors are objects with
a ``read(t)`` method; trace-driven sensors replay recorded series and
synthetic sensors model live metrics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.gma.traces import CpuTrace
from repro.util.rng import ensure_rng

__all__ = [
    "Sensor",
    "ConstantSensor",
    "CallbackSensor",
    "RandomWalkSensor",
    "TraceSensor",
]


class Sensor(ABC):
    """One monitored attribute of one resource."""

    def __init__(self, resource_id: str, attribute: str) -> None:
        self.resource_id = resource_id
        self.attribute = attribute

    @abstractmethod
    def read(self, t: float) -> float:
        """The attribute's value at time ``t``."""


class ConstantSensor(Sensor):
    """A static attribute (cpu-speed, memory-size, ...)."""

    def __init__(self, resource_id: str, attribute: str, value: float) -> None:
        super().__init__(resource_id, attribute)
        self.value = float(value)

    def read(self, t: float) -> float:
        return self.value


class CallbackSensor(Sensor):
    """Adapter around an arbitrary ``t -> value`` function."""

    def __init__(
        self, resource_id: str, attribute: str, fn: Callable[[float], float]
    ) -> None:
        super().__init__(resource_id, attribute)
        self.fn = fn

    def read(self, t: float) -> float:
        return float(self.fn(t))


class RandomWalkSensor(Sensor):
    """A bounded random walk — a generic 'live metric' for tests.

    Reading at time ``t`` advances the walk once per distinct call with
    increasing ``t`` (re-reads of the same time return the cached value, so
    synchronized collection rounds observe one consistent snapshot).
    """

    def __init__(
        self,
        resource_id: str,
        attribute: str,
        low: float = 0.0,
        high: float = 100.0,
        step_scale: float = 5.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(resource_id, attribute)
        if high <= low:
            raise ValueError(f"high must exceed low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.step_scale = float(step_scale)
        self._rng = ensure_rng(seed)
        self._value = float(self._rng.uniform(low, high))
        self._last_t: float | None = None

    def read(self, t: float) -> float:
        if self._last_t is None or t > self._last_t:
            self._last_t = t
            step = float(self._rng.normal(0, self.step_scale))
            self._value = float(np.clip(self._value + step, self.low, self.high))
        return self._value


class TraceSensor(Sensor):
    """Replays a recorded :class:`~repro.gma.traces.CpuTrace` (Sec. 5.4)."""

    def __init__(self, resource_id: str, attribute: str, trace: CpuTrace) -> None:
        super().__init__(resource_id, attribute)
        self.trace = trace

    def read(self, t: float) -> float:
        return self.trace.at_time(t)

    def read_slot(self, slot: int) -> float:
        """Slot-indexed read (the accuracy experiment iterates slots)."""
        return self.trace.at_slot(slot)
