"""The finger limiting function ``g(x)`` of balanced routing (paper Sec. 3.4).

A node ``i`` at clockwise distance ``x`` from the root may only use fingers
at most ``2^{g(x)}`` away, where::

    g(x) = ceil(log2((x + 2*d0) / 3))

and ``d0`` is the mean inter-node gap (``2^b / n``). The derivation solves
for the limit that makes exactly the j-th and (j+1)-th inbound fingers of
every node choose it as parent, yielding branching factor <= 2 on evenly
distributed identifiers.

**One integer expression.** ``x`` is an integer, so ``ceil((x + 2*d0)/3)
= ceil((x + c)/3)`` with ``c = ceil(2*d0)`` (nested ceilings), and::

    g(x) = ((x + c + 2) // 3 - 1).bit_length()

with ``c`` taken once, exactly, from ``d0``'s ``Fraction``. It has three
evaluators: :class:`FingerLimiter` (Python ints), :func:`parent_slots`
(int64 arrays, one ``frexp``) and ``DatUpdateEngine._patch_trees`` (inline,
below), all exact: an off-by-one flips a parent and breaks the balance.

**The parent slot, and who computes it how.** On a converged ring finger
``j`` of node ``i`` is ``successor(i + 2^j)``. Let ``reach = cw(i, p)`` for
the last member ``p`` at or before the target (the root ``r`` itself when
the target is a member). The finger lands in ``(i, target]`` exactly when
``2^j <= reach``: below that ``p`` bounds the successor, above it the
finger is already past ``p`` and so past the target. The eligible slots are
a prefix, and Algorithm 1's parent is finger ``min(floor(log2 reach),
g(x))`` with ``x = cw(i, target)`` — :func:`parent_slots`, no scan. Two
array callers use it: ``chord.fastbuild.fast_tree_arrays`` (root-addressed,
``reach = x``) and ``chord.block.ChordNodeBlock.key_parents``
(key-addressed, ``reach = cw(i, p*)``). The scans they replaced are the
references in ``tests/property/test_prop_parent_slot.py`` and
``test_prop_key_parent_slot.py``. The rest keep their own form on purpose:

* ``chord.incremental.DatUpdateEngine._patch_trees`` evaluates the same
  closed form on Python ints, inline, for one node at a time, with the
  same ``c + 2`` (``ceil_div(2*2^b, n) + 2``) — a call per node through
  :class:`FingerLimiter` measured ~20 % slower per membership event and
  pushes its call count past ``TestEventCost``'s bound;
* ``core.service.DatNodeService.parent_toward_key`` and
  ``core.parent.select_parent_balanced`` scan a finger table: a live one
  that may be stale mid-churn, or one a caller supplies, where no closed
  form holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.util.bits import ceil_log2

__all__ = ["ceil_log2_fraction", "FingerLimiter", "parent_slots"]


def ceil_log2_fraction(value: Fraction) -> int:
    """Exact ``ceil(log2(value))`` for a positive rational, floored at 0.

    For ``value <= 1`` this returns 0, which in the limiter means "only the
    immediate-successor finger is eligible" — the correct degenerate case
    for nodes adjacent to the root.
    """
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    # For value > 1: ceil(log2(r)) == ceil_log2(ceil(r)) because powers of
    # two are integers; for value <= 1 the integer ceiling is 1 -> 0.
    integer_ceiling = -((-value.numerator) // value.denominator)
    return ceil_log2(max(integer_ceiling, 1))


@dataclass(frozen=True, slots=True)
class FingerLimiter:
    """Callable ``g(x)`` with a fixed mean gap, precomputed exactly.

    The constructor accepts the ring parameters directly so experiment code
    does not repeat the ``d0 = 2^b / n`` convention::

        limiter = FingerLimiter.for_ring(bits=32, n_nodes=512)
        limiter(x)   # max eligible finger slot for distance x

    ``c + 2 = ceil(2*d0) + 2`` is taken at construction; a call builds no
    ``Fraction``.
    """

    d0: Fraction
    _c_plus_2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.d0.numerator, self.d0.denominator
        if p <= 0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        object.__setattr__(self, "_c_plus_2", -(-2 * p // q) + 2)

    @classmethod
    def for_ring(cls, bits: int, n_nodes: int) -> "FingerLimiter":
        """Limiter with the exact mean gap ``2^bits / n_nodes``."""
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        return cls(d0=Fraction(1 << bits, n_nodes))

    @classmethod
    def for_gap(cls, d0: float | Fraction) -> "FingerLimiter":
        """Limiter with an explicit (possibly estimated) mean gap: a float's
        exact value, its denominator limited to ``10**12``."""
        if isinstance(d0, Fraction):
            return cls(d0)
        p, q = d0.as_integer_ratio()
        gap = Fraction(p, q)
        return cls(gap if q <= 10**12 else gap.limit_denominator(10**12))

    def __call__(self, x: int) -> int:
        if x < 0:
            raise ValueError(f"x must be non-negative, got {x}")
        return ((x + self._c_plus_2) // 3 - 1).bit_length()


def parent_slots(
    reach: np.ndarray, x: np.ndarray | None, gap: float | Fraction | None
) -> np.ndarray:
    """``min(floor(log2 reach), g(x))`` per node — Algorithm 1's parent slot.

    ``reach`` bounds the non-overshooting fingers and ``x`` is the distance
    the limit is measured at (module docstring); ``gap=None`` is the basic
    scheme, which has no limit and does not read ``x``. With ``m = (x + c
    + 2) // 3 >= 1``, ``g(x) = ceil_log2(m) = floor(log2(2m - 1))``, so the
    slot is ``floor(log2(min(reach, 2m - 1)))``: ``frexp``'s exponent minus
    one, exact for ``0 <= reach < 2^53`` (``reach = 0`` comes out as
    ``-1``) and ``0 <= x < 2^62``. ``c + 2`` is capped at ``2^54``: past
    it ``2m - 1 > 2^53 > reach`` either way. Returns a fresh int64 array.
    """
    bound = reach
    if gap is not None:
        bound = np.add(x, min(FingerLimiter.for_gap(gap)._c_plus_2, 1 << 54))
        bound //= 3
        bound <<= 1
        bound -= 1
        np.minimum(bound, reach, out=bound)
    return np.subtract(np.frexp(bound)[1], 1, dtype=np.int64)
