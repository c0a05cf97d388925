"""Experiment harness: one module per paper figure/table (DESIGN.md Sec. 4).

Each experiment function returns a structured result object with the exact
rows/series the paper plots; ``benchmarks/`` wraps them with pytest-benchmark
and asserts the paper's shape claims; EXPERIMENTS.md records paper-vs-measured.
"""

from repro.experiments.fig7_tree_properties import (
    Fig7Point,
    run_fig7_tree_properties,
    POWER_OF_TWO_SIZES,
)
from repro.experiments.fig8_load_balance import (
    Fig8Distribution,
    Fig8ImbalancePoint,
    run_fig8a_message_distribution,
    run_fig8b_imbalance_sweep,
)
from repro.experiments.fig9_accuracy import Fig9Result, run_fig9_accuracy
from repro.experiments.maan_routing import MaanRoutingResult, run_maan_routing
from repro.experiments.churn_overhead import ChurnOverheadResult, run_churn_overhead
from repro.experiments.dynamics import DynamicsPoint, DynamicsResult, run_dynamics
from repro.experiments.report import format_table
from repro.experiments.scale import (
    SCALE_SIZES,
    ScalePoint,
    measure_scale_point,
    run_scale_sweep,
)

__all__ = [
    "Fig7Point",
    "run_fig7_tree_properties",
    "POWER_OF_TWO_SIZES",
    "Fig8Distribution",
    "Fig8ImbalancePoint",
    "run_fig8a_message_distribution",
    "run_fig8b_imbalance_sweep",
    "Fig9Result",
    "run_fig9_accuracy",
    "MaanRoutingResult",
    "run_maan_routing",
    "ChurnOverheadResult",
    "run_churn_overhead",
    "DynamicsPoint",
    "DynamicsResult",
    "run_dynamics",
    "format_table",
    "SCALE_SIZES",
    "ScalePoint",
    "measure_scale_point",
    "run_scale_sweep",
]
