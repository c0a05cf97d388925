"""The b-bit circular Chord identifier space (paper Sec. 3.1).

Identifiers live in ``[0, 2^b)`` arranged on a cycle. The paper defines
``DIST(i1, i2) = (i1 + 2^b - i2) mod 2^b`` but then uses both orientations in
different sections (the Algorithm 1 example computes ``x = (k - i) mod 2^b``
for node ``i`` and key ``k``). To avoid that ambiguity this module exposes
one explicitly-named primitive:

``cw(a, b)`` — the number of clockwise steps from ``a`` to ``b``, i.e.
``(b - a) mod 2^b``. All DAT formulas in :mod:`repro.core` are written in
terms of ``cw``; DESIGN.md Sec. 5 records the mapping to the paper's
notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IdentifierError

__all__ = ["IdSpace"]


@dataclass(frozen=True)
class IdSpace:
    """Arithmetic over a ``bits``-bit circular identifier space.

    Parameters
    ----------
    bits:
        Identifier width ``b``; identifiers are integers in ``[0, 2^b)``.
        Chord with SHA-1 uses ``b=160``; simulations typically use smaller
        spaces (the paper's worked examples use ``b=4``).
    """

    bits: int
    #: ``2^bits - 1``, stored: every ring operation reduces mod ``2^bits``
    #: with one ``&`` against it.
    _mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 512:
            raise IdentifierError(f"bits must be in [1, 512], got {self.bits}")
        object.__setattr__(self, "_mask", (1 << self.bits) - 1)

    @property
    def size(self) -> int:
        """Number of identifiers, ``2^bits``."""
        return 1 << self.bits

    @property
    def max_id(self) -> int:
        """Largest valid identifier, ``2^bits - 1``."""
        return self._mask

    def contains(self, ident: int) -> bool:
        """True if ``ident`` is a valid identifier in this space."""
        return isinstance(ident, int) and 0 <= ident <= self._mask

    def validate(self, ident: int) -> int:
        """Return ``ident`` unchanged, raising :class:`IdentifierError` if invalid."""
        if not self.contains(ident):
            raise IdentifierError(
                f"identifier {ident!r} outside [0, 2^{self.bits})"
            )
        return ident

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer into the space (mod ``2^bits``)."""
        return value & self._mask

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #

    def cw(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b``: ``(b - a) mod 2^bits``.

        ``cw(a, a) == 0`` and ``cw(a, b) + cw(b, a) == 2^bits`` for
        ``a != b``.
        """
        return (b - a) & self._mask

    def ccw(self, a: int, b: int) -> int:
        """Counter-clockwise distance from ``a`` to ``b`` (= ``cw(b, a)``)."""
        return (a - b) & self._mask

    def ring_distance(self, a: int, b: int) -> int:
        """Shortest distance around the ring between ``a`` and ``b``."""
        forward = self.cw(a, b)
        return min(forward, self.size - forward) if forward else 0

    # ------------------------------------------------------------------ #
    # Intervals on the circle
    # ------------------------------------------------------------------ #

    def in_open(self, x: int, a: int, b: int) -> bool:
        """True if ``x`` lies in the open clockwise interval ``(a, b)``.

        When ``a == b`` the interval is the whole circle minus ``a`` (the
        standard Chord convention, needed for one-node rings).
        """
        if a == b:
            return x != a
        mask = self._mask
        return 0 < ((x - a) & mask) < ((b - a) & mask)

    def in_half_open_right(self, x: int, a: int, b: int) -> bool:
        """True if ``x`` lies in the clockwise interval ``(a, b]``.

        When ``a == b`` every ``x`` qualifies (whole circle), matching
        Chord's successor test on a one-node ring.
        """
        if a == b:
            return True
        mask = self._mask
        return 0 < ((x - a) & mask) <= ((b - a) & mask)

    def in_half_open_left(self, x: int, a: int, b: int) -> bool:
        """True if ``x`` lies in the clockwise interval ``[a, b)``."""
        if a == b:
            return True
        return self.cw(a, x) < self.cw(a, b)

    def in_closed(self, x: int, a: int, b: int) -> bool:
        """True if ``x`` lies in the clockwise interval ``[a, b]``."""
        if a == b:
            return x == a
        return self.cw(a, x) <= self.cw(a, b)

    # ------------------------------------------------------------------ #
    # Finger offsets (paper Sec. 3.3: FINGER+ / FINGER-)
    # ------------------------------------------------------------------ #

    def finger_start(self, ident: int, j: int) -> int:
        """Identifier ``ident + 2^j`` (0-indexed finger ``j``'s start).

        Note the paper indexes fingers from 1 with offset ``2^{j-1}``; we use
        0-indexed ``j`` with offset ``2^j`` throughout (``0 <= j < bits``).
        """
        if not 0 <= j < self.bits:
            raise IdentifierError(f"finger index {j} outside [0, {self.bits})")
        return self.wrap(ident + (1 << j))

    def inbound_finger_point(self, ident: int, j: int) -> int:
        """Identifier ``ident - 2^j`` — where the j-th inbound finger sits.

        A node at exactly ``ident - 2^j`` has ``ident`` as its j-th
        outbound-finger start (paper's ``FINGER-(v, j)``).
        """
        if not 0 <= j < self.bits:
            raise IdentifierError(f"finger index {j} outside [0, {self.bits})")
        return self.wrap(ident - (1 << j))

    def mean_gap(self, n_nodes: int) -> float:
        """Mean inter-node distance ``d0 = 2^bits / n`` for ``n`` nodes.

        This is the ``d0`` in the paper's ``B(i, n)`` and ``g(x)`` formulas
        ("the distance between two adjacent nodes" under even spacing).
        """
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return self.size / n_nodes

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IdSpace(bits={self.bits})"
