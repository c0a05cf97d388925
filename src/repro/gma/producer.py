"""Producer layer of P-GMA (paper Sec. 2.1).

"In GMA, a producer is a process that sends events to a directory service
or consumers. A producer may also accept search queries from its local
users or applications." A :class:`Producer` owns the sensors of one node's
resource, registers the resource's attributes into the MAAN index, and
serves the node-local value reads the DAT layer aggregates.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import MonitoringError
from repro.gma.sensors import Sensor
from repro.maan.attrs import Resource
from repro.maan.network import MaanNetwork

__all__ = ["Producer"]


class Producer:
    """The monitoring producer running on one overlay node.

    Parameters
    ----------
    node:
        The Chord identifier of the hosting node.
    resource_id:
        Identity of the local resource (host name / contact string).
    sensors:
        One sensor per monitored attribute.
    static_attributes:
        Attribute values that never change (cpu-speed, memory-size); these
        are indexed once at registration, while sensor-backed attributes
        are refreshed on every :meth:`refresh_index`.
    """

    def __init__(
        self,
        node: int,
        resource_id: str,
        sensors: Mapping[str, Sensor] | None = None,
        static_attributes: Mapping[str, float] | None = None,
    ) -> None:
        self.node = node
        self.resource_id = resource_id
        self.sensors: dict[str, Sensor] = dict(sensors or {})
        self.static_attributes: dict[str, float] = dict(static_attributes or {})
        self._last_registered: Resource | None = None
        for attribute, sensor in self.sensors.items():
            if sensor.attribute != attribute:
                raise MonitoringError(
                    f"sensor for {attribute!r} reports attribute "
                    f"{sensor.attribute!r}"
                )

    def add_sensor(self, sensor: Sensor) -> None:
        """Attach one more sensor (keyed by its attribute)."""
        self.sensors[sensor.attribute] = sensor

    def read(self, attribute: str, t: float) -> float:
        """Current value of ``attribute`` (sensor or static)."""
        sensor = self.sensors.get(attribute)
        if sensor is not None:
            return sensor.read(t)
        try:
            return self.static_attributes[attribute]
        except KeyError:
            raise MonitoringError(
                f"producer {self.resource_id!r} has no attribute {attribute!r}"
            ) from None

    def attributes(self) -> list[str]:
        """All attributes this producer can report."""
        return sorted(set(self.sensors) | set(self.static_attributes))

    def snapshot(self, t: float) -> Resource:
        """The resource record describing this node at time ``t``."""
        values: dict[str, float] = dict(self.static_attributes)
        for attribute, sensor in self.sensors.items():
            values[attribute] = sensor.read(t)
        return Resource(resource_id=self.resource_id, attributes=values)

    def register(self, index: MaanNetwork, t: float = 0.0) -> int:
        """(Re-)register this resource into the MAAN index; returns hops."""
        record = self.snapshot(t)
        hops = index.register(record, origin=self.node)
        self._last_registered = record
        return hops

    def refresh_index(self, index: MaanNetwork, t: float) -> int:
        """Refresh dynamic attribute registrations at time ``t``.

        MAAN stores one record per attribute value; dynamic values move
        around the ring as they change, so the previously registered
        placements (remembered from the last register call) are dropped
        first.
        """
        if self._last_registered is not None:
            index.deregister(self._last_registered)
        return self.register(index, t)
