"""Identifier assignment strategies for populating rings.

Three strategies cover everything the evaluation needs:

* ``random``  — i.i.d. uniform identifiers (plain Chord joins). Adjacent-gap
  ratio grows as ``O(log n)``.
* ``uniform`` — perfectly even spacing ``i * 2^b / n`` (the idealized case
  the balanced-DAT theory is proved under, Sec. 3.4–3.5).
* ``probing`` — incremental joins with Adler-style identifier probing
  (Sec. 3.5); gap ratio bounded by a constant.

Every strategy returns a fully-populated :class:`StaticRing` through
:meth:`StaticRing.from_sorted_ids` (an adopted identifier vector where the
space allows it, ``bits <= 62``), so no assigner leaves a per-node Python
list behind on a 10^6-node ring. The probing
strategy runs join by join, since each choice depends on the current
membership, through :func:`repro.chord.ringarray.fast_probing_ids`;
:mod:`repro.chord.probing` is the single-join API and the reference that
routine is tested against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.ringarray import fast_probing_ids
from repro.util.rng import ensure_rng

__all__ = [
    "IdAssigner",
    "RandomIdAssigner",
    "UniformIdAssigner",
    "ProbingIdAssigner",
    "make_assigner",
]


class IdAssigner(ABC):
    """Strategy producing ``n`` node identifiers in a given space."""

    #: Registry name used by :func:`make_assigner` and experiment configs.
    name: str = "abstract"

    @abstractmethod
    def build_ring(
        self, space: IdSpace, n_nodes: int, rng: int | np.random.Generator | None = None
    ) -> StaticRing:
        """Return a ring with ``n_nodes`` distinct identifiers."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class RandomIdAssigner(IdAssigner):
    """I.i.d. uniform random identifiers (standard Chord join)."""

    name = "random"

    def build_ring(
        self, space: IdSpace, n_nodes: int, rng: int | np.random.Generator | None = None
    ) -> StaticRing:
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
        if n_nodes > space.size:
            raise ValueError(
                f"cannot place {n_nodes} distinct nodes in a space of {space.size}"
            )
        generator = ensure_rng(rng)
        chosen: set[int] = set()
        # Rejection-sample; spaces are sized >> n in every experiment so the
        # expected number of redraws is negligible.
        while len(chosen) < n_nodes:
            need = n_nodes - len(chosen)
            draws = generator.integers(0, space.size, size=max(need, 16))
            chosen.update(int(d) for d in draws)
            while len(chosen) > n_nodes:
                chosen.pop()
        return StaticRing.from_sorted_ids(space, sorted(chosen))


class UniformIdAssigner(IdAssigner):
    """Perfectly even spacing — the theory's 'evenly distributed' case.

    Node ``i`` receives identifier ``floor(i * 2^b / n) + offset``. With
    ``n`` a power of two and ``offset=0`` this is exact even spacing, the
    precondition of the branching-factor theorems.
    """

    name = "uniform"

    def __init__(self, offset: int = 0) -> None:
        self.offset = offset

    def build_ring(
        self, space: IdSpace, n_nodes: int, rng: int | np.random.Generator | None = None
    ) -> StaticRing:
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
        if n_nodes > space.size:
            raise ValueError(
                f"cannot place {n_nodes} distinct nodes in a space of {space.size}"
            )
        idents = [
            space.wrap((i * space.size) // n_nodes + self.offset)
            for i in range(n_nodes)
        ]
        return StaticRing.from_sorted_ids(space, sorted(idents))


class ProbingIdAssigner(IdAssigner):
    """Incremental joins with identifier probing (Sec. 3.5).

    The join into a ring of ``k`` members probes
    ``ceil(probe_multiplier * ceil_log2(k))`` neighbors of a random point
    (the count moves only past powers of two) and splits the largest owned
    interval among them.

    Built through :func:`repro.chord.ringarray.fast_probing_ids`, which
    replays joining with
    :func:`~repro.chord.probing.probe_split_identifier` node by node, large
    rings in rounds of independent joins: it consumes ``rng`` identically,
    so the membership and the generator's state afterwards are
    bit-identical (the property suite asserts both).
    """

    name = "probing"

    def __init__(self, probe_multiplier: float = 2.0) -> None:
        if probe_multiplier <= 0:
            raise ValueError(
                f"probe_multiplier must be positive, got {probe_multiplier}"
            )
        self.probe_multiplier = probe_multiplier

    def build_ring(
        self, space: IdSpace, n_nodes: int, rng: int | np.random.Generator | None = None
    ) -> StaticRing:
        return StaticRing.from_sorted_ids(
            space,
            fast_probing_ids(
                space, n_nodes, rng=rng, probe_multiplier=self.probe_multiplier
            ),
        )


_ASSIGNERS: dict[str, type[IdAssigner]] = {
    RandomIdAssigner.name: RandomIdAssigner,
    UniformIdAssigner.name: UniformIdAssigner,
    ProbingIdAssigner.name: ProbingIdAssigner,
}


def make_assigner(name: str, **kwargs: Any) -> IdAssigner:
    """Instantiate an assigner by registry name (``random``/``uniform``/``probing``)."""
    try:
        cls = _ASSIGNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown id assigner {name!r}; choose from {sorted(_ASSIGNERS)}"
        ) from None
    return cls(**kwargs)
