"""Closed-form DAT properties and load-balance metrics (paper Sec. 3.3/3.5).

The theory assumes ``n`` nodes evenly distributed in the identifier space.
For the basic DAT rooted at ``r`` the branching factor of node ``i`` at
clockwise distance ``d = cw(i, r)`` is::

    B(i, n) = log2(n) - ceil(log2(d / d0 + 1))        (d0 = 2^b / n)

so the root (``d = 0``) has ``log2 n`` children and nodes past the antipode
have none. The balanced DAT has branching factor <= 2 and height
<= ``log2 n``. These predictions are validated against measured trees in
``tests/unit/test_core_analysis.py`` and ``benchmarks/bench_theory_validation.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from repro.chord.idspace import IdSpace
from repro.core.tree import DatTree
from repro.util.bits import ceil_log2, is_power_of_two

__all__ = [
    "theoretical_basic_avg_branching",
    "imbalance_factor",
    "load_rank_array",
    "compare_measured_to_theory",
    "compare_depths_to_theory",
]


def _require_power_of_two(n_nodes: int) -> None:
    if not is_power_of_two(n_nodes):
        raise ValueError(
            f"the closed form assumes a power-of-two network size, got {n_nodes}"
        )


def _basic_branching(distance: int, n_nodes: int, bits: int) -> int:
    """Predicted branching factor ``B(i, n)`` of the basic DAT (Sec. 3.3),
    for a node at clockwise distance ``distance = cw(i, root)`` in raw
    identifier units on a ``bits``-bit ring of ``n_nodes`` nodes."""
    _require_power_of_two(n_nodes)
    log_n = ceil_log2(n_nodes)
    d0 = Fraction(1 << bits, n_nodes)
    scaled = Fraction(distance) / d0 + 1
    # ceil(log2(scaled)) with exact rational arithmetic.
    integer_ceiling = -((-scaled.numerator) // scaled.denominator)
    penalty = ceil_log2(max(integer_ceiling, 1))
    return max(log_n - penalty, 0)


def _basic_depth(distance: int, n_nodes: int, bits: int) -> int:
    """Exact depth of a node in the basic DAT on an evenly spaced ring.

    Greedy finger routing covers the clockwise distance ``d`` to the root
    in jumps that are exact powers of two (in units of the node gap
    ``d0``), taking the largest remaining power each hop — so the hop
    count, and hence the node's tree depth, is the **population count** of
    ``d / d0``. (Check against the paper's Fig. 2: node N1 has d = 15 =
    0b1111, popcount 4 — the route <N1, N9, N13, N15, N0>.)
    """
    _require_power_of_two(n_nodes)
    d0 = (1 << bits) // n_nodes
    if distance % d0 != 0:
        raise ValueError(
            f"distance {distance} is not a multiple of the node gap {d0}"
        )
    return (distance // d0).bit_count()


def theoretical_basic_avg_branching(n_nodes: int) -> float:
    """Average branching over internal nodes: ``(n-1) / (n/2)`` → 2.

    ``B(i, n) = 0`` exactly when ``d >= n*d0/2`` (the far half of the
    ring), so half the nodes are leaves and ``n/2`` are internal. Matches
    the measured ~1.875 at n=16 and the paper's "constant ~2" claim
    asymptotically.
    """
    _require_power_of_two(n_nodes)
    return (n_nodes - 1) / max(n_nodes // 2, 1)


def imbalance_factor(loads: Iterable[float] | Mapping[int, float]) -> float:
    """Max/average load ratio (paper Sec. 5.3).

    A perfectly balanced aggregation has an imbalance factor of 1; the
    centralized baseline grows linearly with ``n``, the basic DAT
    logarithmically, the balanced DAT stays near constant.

    Integer ndarrays take a whole-array path with no per-element boxing —
    the sum and max are exact integers, so the result is bit-identical to
    the scalar fold (one IEEE division, one IEEE ratio, same operands).
    Float ndarrays fall through to the scalar fold: ``np.sum`` is pairwise
    while ``sum`` is sequential, and the two can round differently.
    """
    if isinstance(loads, np.ndarray) and np.issubdtype(loads.dtype, np.integer):
        if not loads.size:
            raise ValueError("imbalance factor of an empty load set is undefined")
        average = int(loads.sum(dtype=np.int64)) / int(loads.size)
        if average == 0:
            raise ValueError("imbalance factor undefined for an all-zero load set")
        return int(loads.max()) / average
    values = list(loads.values()) if isinstance(loads, Mapping) else list(loads)
    if not values:
        raise ValueError("imbalance factor of an empty load set is undefined")
    average = sum(values) / len(values)
    if average == 0:
        raise ValueError("imbalance factor undefined for an all-zero load set")
    return max(values) / average


def load_rank_array(loads: np.ndarray) -> np.ndarray:
    """Loads sorted descending — the Fig. 8(a) rank curve (index = rank).

    No node pairing (equal loads are indistinguishable in the curve), so
    10^5-node rank plots never materialize per-node tuples.
    """
    return np.sort(loads)[::-1]


def compare_measured_to_theory(tree: DatTree, bits: int) -> dict[int, tuple[int, int]]:
    """Per-node (measured, predicted) basic-DAT branching factors.

    Only meaningful for a basic DAT over an exactly evenly spaced ring with
    a power-of-two node count; the unit tests use it to validate the
    ``B(i, n)`` closed form node by node.
    """
    n = tree.n_nodes
    space = IdSpace(bits)
    factors = tree.branching_factors()
    out: dict[int, tuple[int, int]] = {}
    for node, measured in factors.items():
        distance = space.cw(node, tree.root)
        predicted = _basic_branching(distance, n, bits)
        out[node] = (measured, predicted)
    return out


def compare_depths_to_theory(tree: DatTree, bits: int) -> dict[int, tuple[int, int]]:
    """Per-node (measured, predicted) basic-DAT depths (popcount theorem).

    Valid under the same conditions as :func:`compare_measured_to_theory`:
    an exactly evenly spaced, power-of-two basic DAT.
    """
    n = tree.n_nodes
    space = IdSpace(bits)
    depths = tree.depths()
    out: dict[int, tuple[int, int]] = {}
    for node, measured in depths.items():
        distance = space.cw(node, tree.root)
        predicted = _basic_depth(distance, n, bits)
        out[node] = (measured, predicted)
    return out
