"""DAT tree construction from a converged ring (paper Algorithm 1 + Sec. 3.2).

The builders compute, for every node, its parent under the chosen scheme and
return an explicit :class:`~repro.core.tree.DatTree` snapshot. Distributed
nodes never materialize this structure — each knows only its own parent
(and, via inbound fingers, its children) — but the snapshot is exactly what
the evaluation measures.

:func:`build_dat` is the one build entrypoint. It decides by what it can
observe: a default build (no caller ``tables``, no ``d0``) on a ring the
array kernel supports (:func:`repro.chord.fastbuild.fast_capable`) runs
:func:`~repro.chord.fastbuild.fast_tree_arrays`; everything else runs the
scalar :func:`build_basic_dat` / :func:`build_balanced_dat`, which stay the
reference the equivalence tests compare the kernel against.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.chord.fingers import FingerTable
from repro.chord.ring import StaticRing
from repro.core.limiting import FingerLimiter
from repro.core.parent import select_parent_balanced, select_parent_basic
from repro.core.tree import DatTree, TreeStats

# chord.fastbuild / chord.incremental import DatScheme and build_dat from
# here, so this module imports them inside the functions that use them.
if TYPE_CHECKING:
    from repro.chord.fastbuild import DatTreeArrays
    from repro.chord.incremental import DatUpdateEngine, DatUpdateReport

__all__ = [
    "DatScheme",
    "build_basic_dat",
    "build_balanced_dat",
    "build_dat",
    "DatTreeBuilder",
]


class DatScheme(str, Enum):
    """Tree-construction scheme selector."""

    BASIC = "basic"
    BALANCED = "balanced"


def _resolve_tables(
    ring: StaticRing, tables: dict[int, FingerTable] | None
) -> dict[int, FingerTable]:
    return ring.all_finger_tables() if tables is None else tables


def build_basic_dat(
    ring: StaticRing,
    key: int,
    tables: dict[int, FingerTable] | None = None,
) -> DatTree:
    """Basic DAT: each node's parent is its greedy next hop toward the root.

    Parameters
    ----------
    ring:
        Converged ring snapshot.
    key:
        Rendezvous key; the root is ``successor(key)``.
    tables:
        Optional pre-built finger tables shared across several builds.
    """
    tables = _resolve_tables(ring, tables)
    root = ring.successor(key)
    parent: dict[int, int] = {}
    for node in ring:
        chosen = select_parent_basic(tables[node], root)
        if chosen is not None:
            parent[node] = chosen
    return DatTree(root=root, parent=parent, key=key)


def build_balanced_dat(
    ring: StaticRing,
    key: int,
    tables: dict[int, FingerTable] | None = None,
    d0: float | Fraction | None = None,
) -> DatTree:
    """Balanced DAT (Algorithm 1): parent limited to fingers within 2^g(x).

    Parameters
    ----------
    ring, key, tables:
        As in :func:`build_basic_dat`.
    d0:
        Mean inter-node gap used by the limiting function. Defaults to the
        exact ``2^b / n`` of the ring; pass an estimate to model the
        distributed setting where nodes only know an approximation.
    """
    tables = _resolve_tables(ring, tables)
    root = ring.successor(key)
    if d0 is None:
        limiter = FingerLimiter.for_ring(ring.space.bits, len(ring))
    else:
        limiter = FingerLimiter.for_gap(d0)
    parent: dict[int, int] = {}
    for node in ring:
        chosen = select_parent_balanced(tables[node], root, limiter)
        if chosen is not None:
            parent[node] = chosen
    return DatTree(root=root, parent=parent, key=key)


def build_dat(
    ring: StaticRing,
    key: int,
    scheme: DatScheme | str = DatScheme.BALANCED,
    tables: dict[int, FingerTable] | None = None,
    d0: float | Fraction | None = None,
) -> DatTree:
    """Build a DAT under the given scheme (string or :class:`DatScheme`).

    Identical output whichever builder runs (module docstring): pre-built
    ``tables`` or a custom ``d0`` select the scalar builders, as do spaces
    too wide for the array kernel and single-node rings.
    """
    from repro.chord.fastbuild import fast_capable, fast_tree_arrays

    scheme = DatScheme(scheme)
    # Instrumentation lives on this wrapper, never in the per-node loops —
    # the disabled-mode cost is one global read per build, gated by
    # benchmarks/bench_telemetry_overhead.py.
    with telemetry.span(
        "dat.build", key=key, scheme=scheme.value, n=len(ring)
    ) as sp:
        if tables is None and d0 is None and fast_capable(ring):
            arrays = fast_tree_arrays(ring, key, scheme=scheme)
            tree = DatTree(root=arrays.root, parent=arrays.parent_map(), key=key)
            # Seed the height cache from the index-space depths so the span
            # attribute below never triggers the Python BFS.
            tree._height = arrays.height()
        elif scheme is DatScheme.BASIC:
            tree = build_basic_dat(ring, key, tables=tables)
        else:
            tree = build_balanced_dat(ring, key, tables=tables, d0=d0)
        if sp is not telemetry.NULL_SPAN:
            # ``height`` is lazy: sampled-out / evicted spans never pay the
            # depth scan; the exporter resolves it only for spans it keeps.
            sp.set(root=tree.root)
            sp.set_lazy(height=lambda: tree.height)
            telemetry.count("dat_builds_total", scheme=scheme.value)
        return tree


class DatTreeBuilder:
    """Reusable builder caching finger state across many rendezvous keys.

    Building multiple DATs on one overlay (one per monitored attribute —
    the paper's 'multiple aggregation trees' scenario) shares the ring's
    finger state. Default builds go through the matrix-free kernel and need
    the ring alone; the scalar ``{node: FingerTable}`` dict serves custom
    ``d0`` and wide spaces, and :attr:`finger_matrix` is cached for callers
    that read finger state itself.

    :meth:`apply_event` switches the builder to incremental maintenance
    (:class:`~repro.chord.incremental.DatUpdateEngine`): each membership
    event then patches every previously built tree in O(log n) expected
    time instead of invalidating it, and drops the lazy finger caches (the
    engine keeps no finger state; they rebuild on next access). After the
    first event, trees returned by :meth:`build` are live views patched in
    place by subsequent events.
    """

    def __init__(
        self, ring: StaticRing, scheme: DatScheme | str = DatScheme.BALANCED
    ) -> None:
        self.ring = ring
        self.scheme = DatScheme(scheme)
        self._tables: dict[int, FingerTable] | None = None
        self._matrix: np.ndarray | None = None
        self._built: dict[int, DatTree] = {}
        self._engine: DatUpdateEngine | None = None

    @property
    def tables(self) -> dict[int, FingerTable]:
        """Finger tables of the ring (built lazily, cached)."""
        if self._tables is None:
            self._tables = self.ring.all_finger_tables()
        return self._tables

    @property
    def finger_matrix(self) -> np.ndarray | None:
        """Cached :func:`~repro.chord.fastbuild.fast_finger_matrix` of the
        ring; ``None`` when the space is too wide or the ring is trivial."""
        from repro.chord.fastbuild import fast_capable, fast_finger_matrix

        if self._matrix is None and fast_capable(self.ring):
            self._matrix = fast_finger_matrix(self.ring)
        return self._matrix

    def build(self, key: int, d0: float | Fraction | None = None) -> DatTree:
        """Build the DAT for one rendezvous key.

        :func:`build_dat` picks the builder; the cached scalar tables are
        handed over only where it would otherwise rebuild them (a custom
        ``d0``, or a ring the array kernel cannot take).
        """
        from repro.chord.fastbuild import fast_capable

        if d0 is not None:
            return build_dat(
                self.ring, key, scheme=self.scheme, tables=self.tables, d0=d0
            )
        if self._engine is not None:
            return self._engine.track(key)
        tables = None if fast_capable(self.ring) else self.tables
        tree = build_dat(self.ring, key, scheme=self.scheme, tables=tables)
        self._built[key] = tree
        return tree

    def build_many(self, keys: list[int]) -> dict[int, DatTree]:
        """Build one DAT per rendezvous key (multi-tree scenario)."""
        return {key: self.build(key) for key in keys}

    def tree_arrays(self, key: int) -> "DatTreeArrays | None":
        """Array-native snapshot for ``key``, or ``None`` off the fast path.

        Returns a :class:`~repro.chord.fastbuild.DatTreeArrays` built from
        the ring's current membership alone — the large-``n`` route that
        never boxes per-node Python objects, so after :meth:`apply_event`
        it reflects the post-churn ring. ``None`` means the space is too
        wide (or the ring trivial) and the caller should use :meth:`build`.
        """
        from repro.chord.fastbuild import fast_capable, fast_tree_arrays

        if not fast_capable(self.ring):
            return None
        return fast_tree_arrays(self.ring, key, scheme=self.scheme)

    def tree_stats(self, key: int) -> TreeStats:
        """Sec. 5.2 statistics for ``key`` without materializing a tree.

        Bit-identical to ``build(key).stats()`` (the fastbuild equivalence
        discipline) but array-native end to end on the fast path, so it
        stays O(n) int64 storage at 10^5-10^6 nodes.
        """
        arrays = self.tree_arrays(key)
        if arrays is None:
            return self.build(key).stats()
        return arrays.stats()

    def apply_event(self, kind: str, ident: int) -> DatUpdateReport:
        """Apply a join/leave/crash, patching every built tree.

        The first call creates the
        :class:`~repro.chord.incremental.DatUpdateEngine` and registers
        every tree previously built with the default ``d0`` (the latest
        build per key); every call costs O(log n) expected per tree and
        drops the lazy finger caches. Returns the engine's
        :class:`~repro.chord.incremental.DatUpdateReport`.
        """
        if self._engine is None:
            from repro.chord.incremental import DatUpdateEngine

            self._engine = DatUpdateEngine(self.ring, scheme=self.scheme)
            for key, tree in self._built.items():
                self._engine.track(key, tree)
            self._built.clear()
        report = self._engine.apply(kind, ident)
        self._tables = None
        self._matrix = None
        return report

    def invalidate(self) -> None:
        """Drop every cache and built tree after out-of-band ring changes.

        Not needed after :meth:`apply_event` — the point of the
        incremental engine is that built trees stay valid across events.
        """
        self._tables = None
        self._matrix = None
        self._built.clear()
        self._engine = None
