"""Baseline aggregation schemes the paper compares DAT against (Sec. 5.3)."""

from repro.baselines.centralized import (
    centralized_direct_loads,
    CentralizedAggregator,
)

__all__ = [
    "centralized_direct_loads",
    "CentralizedAggregator",
]
