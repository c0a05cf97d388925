"""Producer layer of P-GMA (paper Sec. 2.1).

"In GMA, a producer is a process that sends events to a directory service
or consumers. A producer may also accept search queries from its local
users or applications." A :class:`Producer` is what one node serves: a
resource record of static attributes for the MAAN index, and a CPU-usage
trace whose reading at time ``t`` the DAT layer aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MonitoringError
from repro.gma.traces import CpuTrace
from repro.maan.attrs import Resource

__all__ = ["Producer"]

#: The one dynamic attribute: a producer reads it from its trace.
DYNAMIC_ATTRIBUTE = "cpu-usage"


@dataclass(frozen=True)
class Producer:
    """The monitoring producer of one overlay node.

    Parameters
    ----------
    node:
        The Chord identifier of the hosting node.
    resource:
        The node's resource record: its id and static attributes
        (cpu-speed, memory-size, ...).
    trace:
        The node's ``cpu-usage`` series.
    """

    node: int
    resource: Resource
    trace: CpuTrace

    def read(self, attribute: str, t: float) -> float:
        """Value of ``attribute`` at time ``t`` (trace or static)."""
        if attribute == DYNAMIC_ATTRIBUTE:
            return self.trace.at_time(t)
        try:
            return self.resource.attributes[attribute]
        except KeyError:
            raise MonitoringError(
                f"producer {self.resource.resource_id!r} has no attribute "
                f"{attribute!r}"
            ) from None

    def snapshot(self, t: float) -> Resource:
        """The resource record describing this node at time ``t``."""
        return Resource(
            resource_id=self.resource.resource_id,
            attributes={
                **self.resource.attributes,
                DYNAMIC_ATTRIBUTE: self.trace.at_time(t),
            },
        )
