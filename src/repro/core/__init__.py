"""Distributed Aggregation Trees (DAT) — the paper's core contribution.

Construction (paper Sec. 3):

* :func:`~repro.core.builder.build_basic_dat` — the tree implied by greedy
  Chord finger routes toward ``successor(key)`` (Sec. 3.2).
* :func:`~repro.core.builder.build_balanced_dat` — balanced routing with the
  finger limiting function ``g(x) = ceil(log2((x + 2*d0)/3))`` (Sec. 3.4).

Aggregation (paper Sec. 4): mergeable aggregate functions
(:mod:`repro.core.aggregates`) and the on-demand / continuous protocol
modes with their per-node aggregation table (:mod:`repro.core.service`).

Analysis (paper Sec. 3.3/3.5): closed-form branching factors and tree
metrics in :mod:`repro.core.analysis`.
"""

from repro.core.limiting import finger_limit, FingerLimiter
from repro.core.parent import select_parent_basic, select_parent_balanced
from repro.core.tree import DatTree, TreeStats
from repro.core.builder import (
    DatScheme,
    DatTreeBuilder,
    build_basic_dat,
    build_balanced_dat,
    build_dat,
)
from repro.core.aggregates import (
    Aggregate,
    AverageAggregate,
    CountAggregate,
    HistogramAggregate,
    MaxAggregate,
    MinAggregate,
    StdAggregate,
    SumAggregate,
    TopKAggregate,
    get_aggregate,
    register_aggregate,
)
from repro.core.service import DatNodeService, StandaloneDatHost, OnDemandRound
from repro.core.multitree import DatForest, ForestLoadReport
from repro.core.overlay import DatOverlay
from repro.core.gathercast import GatherCollector
from repro.core.redundant import RedundantAggregator, ReplicaOutcome
from repro.core.analysis import (
    theoretical_basic_branching,
    theoretical_max_branching_basic,
    imbalance_factor,
)

__all__ = [
    "finger_limit",
    "FingerLimiter",
    "select_parent_basic",
    "select_parent_balanced",
    "DatTree",
    "TreeStats",
    "DatScheme",
    "DatTreeBuilder",
    "build_basic_dat",
    "build_balanced_dat",
    "build_dat",
    "Aggregate",
    "SumAggregate",
    "CountAggregate",
    "MinAggregate",
    "MaxAggregate",
    "AverageAggregate",
    "StdAggregate",
    "HistogramAggregate",
    "TopKAggregate",
    "get_aggregate",
    "register_aggregate",
    "DatNodeService",
    "StandaloneDatHost",
    "OnDemandRound",
    "DatForest",
    "ForestLoadReport",
    "DatOverlay",
    "GatherCollector",
    "RedundantAggregator",
    "ReplicaOutcome",
    "theoretical_basic_branching",
    "theoretical_max_branching_basic",
    "imbalance_factor",
]
