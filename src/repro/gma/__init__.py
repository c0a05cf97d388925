"""P-GMA — the P2P Grid Monitoring Architecture (paper Sec. 2, Fig. 1).

Layers, bottom to top:

* **producers** (:mod:`repro.gma.producer`) — one per node: a resource
  record of static attributes plus a ``cpu-usage``
  :class:`~repro.gma.traces.CpuTrace` (:mod:`repro.gma.traces`), whose
  reading at time ``t`` stands in for the paper's /proc sensors.
* **indexing** — :mod:`repro.maan`.
* **aggregation** — :mod:`repro.core` (DAT trees).
* **consumers** — applications: they search through the MAAN index and
  read global aggregates from the DAT layer.

:class:`~repro.gma.monitor.GridMonitor` is the facade wiring the stack
together over one overlay; :class:`~repro.gma.live.LiveGridMonitor` runs
the same stack over real messages.
"""

from repro.gma.traces import CpuTrace, TraceGenerator
from repro.gma.producer import Producer
from repro.gma.monitor import GridMonitor, MonitorConfig
from repro.gma.live import LiveGridMonitor

__all__ = [
    "CpuTrace",
    "TraceGenerator",
    "Producer",
    "GridMonitor",
    "MonitorConfig",
    "LiveGridMonitor",
]
