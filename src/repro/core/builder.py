"""DAT tree construction from a converged ring (paper Algorithm 1 + Sec. 3.2).

:func:`build_dat` computes, for every node, its parent under the chosen
scheme and returns an explicit :class:`~repro.core.tree.DatTree` snapshot.
Distributed nodes never materialize this structure — each knows only its own
parent (and, via inbound fingers, its children) — but the snapshot is exactly
what the evaluation measures.

There is one builder: the array kernel
:func:`~repro.chord.fastbuild.fast_tree_arrays`, for every ring it supports
(identifier spaces up to ``FAST_PATH_MAX_BITS`` = 48 bits; wider ones raise
:class:`~repro.errors.TreeError`). The per-node finger-table scans it is
proved against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.chord.ring import StaticRing
from repro.core.tree import DatTree, TreeStats

# chord.fastbuild / chord.incremental import DatScheme and build_dat from
# here, so this module imports them inside the functions that use them.
if TYPE_CHECKING:
    from repro.chord.fastbuild import DatTreeArrays

__all__ = [
    "DatScheme",
    "build_dat",
    "DatTreeBuilder",
]


class DatScheme(str, Enum):
    """Tree-construction scheme selector."""

    BASIC = "basic"
    BALANCED = "balanced"


def build_dat(
    ring: StaticRing,
    key: int,
    scheme: DatScheme | str = DatScheme.BALANCED,
    d0: float | Fraction | None = None,
) -> DatTree:
    """Build a DAT under the given scheme (string or :class:`DatScheme`).

    ``d0`` replaces the balanced limiter's exact mean gap ``2^b / n`` with
    an estimate, as a node that only knows an approximation would use; the
    basic scheme has no limiter and ignores it.
    """
    from repro.chord.fastbuild import fast_tree_arrays

    scheme = DatScheme(scheme)
    # Instrumentation lives on this wrapper, never in the per-node loops —
    # the disabled-mode cost is one global read per build, gated by
    # benchmarks/bench_telemetry_overhead.py.
    with telemetry.span(
        "dat.build", key=key, scheme=scheme.value, n=len(ring)
    ) as sp:
        arrays = fast_tree_arrays(ring, key, scheme=scheme, d0=d0)
        tree = DatTree(root=arrays.root, parent=arrays.parent_map(), key=key)
        if sp is not telemetry.NULL_SPAN:
            # ``height`` is lazy: sampled-out / evicted spans never pay the
            # depth scan; the exporter resolves it only for spans it keeps.
            sp.set(root=tree.root)
            sp.set_lazy(height=lambda: tree.height)
            telemetry.count("dat_builds_total", scheme=scheme.value)
        return tree


class DatTreeBuilder:
    """Reusable builder for many rendezvous keys on one overlay.

    Building multiple DATs on one overlay (one per monitored attribute —
    the paper's 'multiple aggregation trees' scenario) needs the ring
    alone: every build goes through the matrix-free kernel, and reads the
    ring's membership at the time of the call.
    """

    def __init__(
        self, ring: StaticRing, scheme: DatScheme | str = DatScheme.BALANCED
    ) -> None:
        self.ring = ring
        self.scheme = DatScheme(scheme)

    @property
    def finger_matrix(self) -> np.ndarray:
        """A fresh :func:`~repro.chord.fastbuild.fast_finger_matrix` of the
        ring on every read.

        Nothing in ``src/`` reads it and the builder keeps no copy. It stays
        only for the frozen perf ledger (``benchmarks/perf/workloads.py``'s
        ``ForestStats.setup`` and ``micro.py``), and leaves ``src/`` with the
        rest of the matrix API when ROADMAP item 1(b) frees the ledger.
        """
        from repro.chord.fastbuild import fast_finger_matrix

        return fast_finger_matrix(self.ring)

    def build(self, key: int, d0: float | Fraction | None = None) -> DatTree:
        """Build the DAT for one rendezvous key (``d0`` as in :func:`build_dat`)."""
        return build_dat(self.ring, key, scheme=self.scheme, d0=d0)

    def build_many(self, keys: list[int]) -> dict[int, DatTree]:
        """Build one DAT per rendezvous key (multi-tree scenario)."""
        return {key: self.build(key) for key in keys}

    def tree_arrays(self, key: int) -> DatTreeArrays:
        """Array-native snapshot for ``key``.

        Returns a :class:`~repro.chord.fastbuild.DatTreeArrays` built from
        the ring's current membership alone — the large-``n`` route that
        never boxes per-node Python objects.
        """
        from repro.chord.fastbuild import fast_tree_arrays

        return fast_tree_arrays(self.ring, key, scheme=self.scheme)

    def tree_stats(self, key: int) -> TreeStats:
        """Sec. 5.2 statistics for ``key`` without materializing a tree.

        Bit-identical to ``build(key).stats()`` (the fastbuild equivalence
        discipline) but array-native end to end, so it stays O(n) int64
        storage at 10^5-10^6 nodes.
        """
        return self.tree_arrays(key).stats()
