"""Synthetic workload generators for the evaluation experiments."""

from repro.workloads.grids import (
    GridResourceGenerator,
    default_schemas,
    make_producers,
)
from repro.workloads.churn import ChurnEvent, ChurnKind, ChurnWorkload
from repro.workloads.queries import QueryWorkload

__all__ = [
    "GridResourceGenerator",
    "default_schemas",
    "make_producers",
    "ChurnEvent",
    "ChurnKind",
    "ChurnWorkload",
    "QueryWorkload",
]
