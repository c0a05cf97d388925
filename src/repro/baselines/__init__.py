"""Baseline aggregation schemes the paper compares DAT against (Sec. 5.3)."""

from repro.baselines.centralized import CentralizedAggregator

__all__ = ["CentralizedAggregator"]
