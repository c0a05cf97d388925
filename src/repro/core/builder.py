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
    from repro.chord.incremental import DatUpdateEngine, DatUpdateReport

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
    alone: every build goes through the matrix-free kernel.

    :meth:`apply_event` switches the builder to incremental maintenance
    (:class:`~repro.chord.incremental.DatUpdateEngine`): each membership
    event then patches every previously built tree in O(log n) expected
    time instead of invalidating it. After the first event, trees returned
    by :meth:`build` are live views patched in place by subsequent events.
    """

    def __init__(
        self, ring: StaticRing, scheme: DatScheme | str = DatScheme.BALANCED
    ) -> None:
        self.ring = ring
        self.scheme = DatScheme(scheme)
        self._built: dict[int, DatTree] = {}
        self._engine: DatUpdateEngine | None = None

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
        """Build the DAT for one rendezvous key (``d0`` as in :func:`build_dat`;
        a custom-``d0`` tree is not kept for :meth:`apply_event`)."""
        if d0 is not None:
            return build_dat(self.ring, key, scheme=self.scheme, d0=d0)
        if self._engine is not None:
            return self._engine.track(key)
        tree = build_dat(self.ring, key, scheme=self.scheme)
        self._built[key] = tree
        return tree

    def build_many(self, keys: list[int]) -> dict[int, DatTree]:
        """Build one DAT per rendezvous key (multi-tree scenario)."""
        return {key: self.build(key) for key in keys}

    def tree_arrays(self, key: int) -> DatTreeArrays:
        """Array-native snapshot for ``key``.

        Returns a :class:`~repro.chord.fastbuild.DatTreeArrays` built from
        the ring's current membership alone — the large-``n`` route that
        never boxes per-node Python objects, so after :meth:`apply_event`
        it reflects the post-churn ring.
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

    def apply_event(self, kind: str, ident: int) -> DatUpdateReport:
        """Apply a join/leave/crash, patching every built tree.

        The first call creates the
        :class:`~repro.chord.incremental.DatUpdateEngine` and registers
        every tree previously built with the default ``d0`` (the latest
        build per key); every call costs O(log n) expected per tree.
        Returns the engine's
        :class:`~repro.chord.incremental.DatUpdateReport`.
        """
        if self._engine is None:
            from repro.chord.incremental import DatUpdateEngine

            self._engine = DatUpdateEngine(self.ring, scheme=self.scheme)
            for key, tree in self._built.items():
                self._engine.track(key, tree)
            self._built.clear()
        return self._engine.apply(kind, ident)

    def invalidate(self) -> None:
        """Drop every built tree after out-of-band ring changes.

        Not needed after :meth:`apply_event` — the point of the
        incremental engine is that built trees stay valid across events.
        """
        self._built.clear()
        self._engine = None
