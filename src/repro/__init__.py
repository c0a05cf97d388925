"""repro — Distributed Aggregation Trees (DAT) on Chord for Grid monitoring.

A full reproduction of Cai & Hwang, "Distributed Aggregation Algorithms
with Load-Balancing for Scalable Grid Resource Monitoring" (IPPS 2007):

* :mod:`repro.chord` — the Chord overlay (static analytical model + live
  protocol), identifier probing, consistent and locality-preserving hashing.
* :mod:`repro.core` — DAT construction (basic & balanced), mergeable
  aggregate functions, the per-node aggregation table, on-demand and
  continuous protocol modes, and closed-form tree analysis.
* :mod:`repro.sim` — the heap-based discrete-event engine and the three
  interchangeable transports (simulated, UDP, in-process).
* :mod:`repro.maan` — the multi-attribute addressable network index.
* :mod:`repro.gma` — the P-GMA monitoring stack (sensors, producers,
  consumers, traces) and the :class:`~repro.gma.monitor.GridMonitor` facade.
* :mod:`repro.baselines` — the centralized aggregation baseline.
* :mod:`repro.workloads` / :mod:`repro.experiments` — workload generators
  and one harness per paper figure.

Quickstart::

    from repro import GridMonitor, MonitorConfig
    from repro.workloads import default_schemas, make_producers

    monitor = GridMonitor(MonitorConfig(n_nodes=128, seed=7), default_schemas())
    for producer in make_producers(monitor.ring, seed=7).values():
        monitor.attach_producer(producer)
    monitor.register_all()
    cpu_avg = monitor.consumer().global_aggregate("cpu-usage", "avg")

Library modules never write to stdout; diagnostics flow through the
``repro`` logging tree — see :func:`repro.sim.tracing.get_logger`.
"""

from repro.chord import IdSpace, StaticRing, sha1_id, make_assigner
from repro.core import (
    DatScheme,
    DatTree,
    build_balanced_dat,
    build_basic_dat,
    build_dat,
    get_aggregate,
    imbalance_factor,
)
from repro.gma import GridMonitor, MonitorConfig, TraceGenerator
from repro.maan import AttributeSchema, MaanNetwork, RangeQuery, Resource

__version__ = "1.0.0"

__all__ = [
    "IdSpace",
    "StaticRing",
    "sha1_id",
    "make_assigner",
    "DatScheme",
    "DatTree",
    "build_basic_dat",
    "build_balanced_dat",
    "build_dat",
    "get_aggregate",
    "imbalance_factor",
    "GridMonitor",
    "MonitorConfig",
    "TraceGenerator",
    "AttributeSchema",
    "MaanNetwork",
    "RangeQuery",
    "Resource",
    "__version__",
]
