"""P-GMA — the P2P Grid Monitoring Architecture (paper Sec. 2, Fig. 1).

Layers, bottom to top:

* **sensors** (:mod:`repro.gma.sensors`) — per-resource status readers
  (synthetic equivalents of /proc scrapers), including trace-driven CPU
  sensors fed by :mod:`repro.gma.traces`.
* **producers** (:mod:`repro.gma.producer`) — per-node processes exposing
  sensor readings, registering resource attributes into the MAAN index.
* **indexing** — :mod:`repro.maan`.
* **aggregation** — :mod:`repro.core` (DAT trees).
* **consumers** (:mod:`repro.gma.consumer`) — search + global monitoring
  APIs for applications (scheduling, diagnostics, capacity planning).

:class:`~repro.gma.monitor.GridMonitor` is the facade wiring the stack
together over one overlay.
"""

from repro.gma.sensors import (
    CallbackSensor,
    ConstantSensor,
    RandomWalkSensor,
    Sensor,
    TraceSensor,
)
from repro.gma.traces import CpuTrace, TraceGenerator
from repro.gma.producer import Producer
from repro.gma.consumer import Consumer
from repro.gma.monitor import GridMonitor, MonitorConfig
from repro.gma.live import LiveGridMonitor
from repro.gma.scheduler import MonitoringScheduler, WatchSpec

__all__ = [
    "Sensor",
    "ConstantSensor",
    "CallbackSensor",
    "RandomWalkSensor",
    "TraceSensor",
    "CpuTrace",
    "TraceGenerator",
    "Producer",
    "Consumer",
    "GridMonitor",
    "MonitorConfig",
    "LiveGridMonitor",
    "MonitoringScheduler",
    "WatchSpec",
]
