"""The finger limiting function ``g(x)`` of balanced routing (paper Sec. 3.4).

A node ``i`` at clockwise distance ``x`` from the root may only use fingers
at most ``2^{g(x)}`` away, where::

    g(x) = ceil(log2((x + 2*d0) / 3))

and ``d0`` is the mean inter-node gap (``2^b / n``). The derivation solves
for the limit that makes exactly the j-th and (j+1)-th inbound fingers of
every node choose it as parent, yielding branching factor <= 2 on evenly
distributed identifiers.

All arithmetic here is exact: with ``d0 = p/q`` the limit is
``ceil_log2(max(1, ceil((x*q + 2p) / (3q))))`` — :class:`FingerLimiter` on
Python ints, :func:`_balanced_limits` on int64 arrays. For ``b = 160`` the
quantities overflow doubles, and an off-by-one in ``ceil(log2(.))`` flips a
parent choice and breaks the balance proof.

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
  closed form on Python ints, inline, for one node at a time — a call per
  node through :class:`FingerLimiter` measured ~20 % slower per membership
  event and pushes its call count past ``TestEventCost``'s bound;
* ``core.service.DatNodeService.parent_toward_key`` and
  ``core.parent.select_parent_*`` scan a finger table: a live one that may
  be stale mid-churn, or one a caller supplies, where no closed form holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.util.bits import ceil_log2

__all__ = ["ceil_log2_fraction", "finger_limit", "FingerLimiter", "parent_slots"]


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


def finger_limit(x: int, d0: float | Fraction) -> int:
    """``g(x) = ceil(log2((x + 2*d0)/3))``, clamped to ``>= 0``.

    Parameters
    ----------
    x:
        Clockwise distance from the node to the root, ``x >= 0``. (``x = 0``
        is the root itself, which has no parent; callers never need the
        value but it is defined for completeness.)
    d0:
        Mean inter-node gap. Accepts an exact :class:`~fractions.Fraction`
        (preferred, e.g. ``Fraction(2**b, n)``) or a float, which is
        converted exactly.

    Returns
    -------
    int
        Maximum eligible finger slot index ``j`` (0-indexed, finger ``j``
        covers offset ``2^j``): eligible slots are ``j <= g(x)``.
    """
    return FingerLimiter.for_gap(d0)(x)


@dataclass(frozen=True, slots=True)
class FingerLimiter:
    """Callable ``g(x)`` with a fixed mean gap, precomputed exactly.

    The constructor accepts the ring parameters directly so experiment code
    does not repeat the ``d0 = 2^b / n`` convention::

        limiter = FingerLimiter.for_ring(bits=32, n_nodes=512)
        limiter(x)   # max eligible finger slot for distance x

    ``q`` and ``2p`` are taken at construction; a call builds no ``Fraction``.
    """

    d0: Fraction
    _q: int = field(init=False, repr=False, compare=False)
    _two_p: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.d0.numerator, self.d0.denominator
        if p <= 0:
            raise ValueError(f"d0 must be positive, got {self.d0}")
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_two_p", 2 * p)

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
        q = self._q
        return ceil_log2(max(1, -(-(x * q + self._two_p) // (3 * q))))

    def max_finger_offset(self, x: int) -> int:
        """Largest finger offset ``2^{g(x)}`` eligible at distance ``x``."""
        return 1 << self(x)


def _vectorized_ceil_log2(values: np.ndarray) -> np.ndarray:
    """Exact ``ceil(log2(v))`` for positive int64 values < 2^53.

    ``frexp`` decomposes ``v = m * 2^e`` with ``m`` in [0.5, 1); the
    decomposition is exact for integers below 2^53, so
    ``ceil(log2(v)) = e - 1`` when ``v`` is a power of two (m == 0.5) and
    ``e`` otherwise — no floating-point rounding anywhere.
    """
    mantissa, exponent = np.frexp(values)
    result = exponent.astype(np.int64)
    # frexp mantissae are exact binary fractions, so 0.5 is representable
    # and the power-of-two test is safe as an exact comparison.
    result[mantissa == 0.5] -= 1
    return np.maximum(result, 0)


def _balanced_limits(x: np.ndarray, d0: float | Fraction) -> np.ndarray:
    """``g(x)`` for an array of distances, exactly.

    The array form of :class:`FingerLimiter`, which evaluates the same
    identity on Python ints: with ``d0 = p/q``, the limit is
    ``ceil_log2(max(ceil((x*q + 2p)/(3q)), 1))``. The int64 path runs
    whenever the numerators provably fit in int64 and the ceilings stay
    inside float64's exact range (always true for the power-of-two
    populations the scale benchmarks use, where ``q == 1``); otherwise each
    element goes through the scalar limiter's arbitrary-precision ints,
    trading speed for the same exact answers.
    """
    limiter = FingerLimiter.for_gap(d0)
    x = np.asarray(x, dtype=np.int64)
    p, q = limiter.d0.numerator, limiter.d0.denominator
    x_max = int(x.max()) if x.size else 0
    if x_max * q + 2 * p < 2**62:
        numerator = x * np.int64(q) + np.int64(2 * p)
        m = np.maximum(-((-numerator) // np.int64(3 * q)), np.int64(1))
        m_max = int(m.max()) if m.size else 0
        if m_max < 2**53:
            return _vectorized_ceil_log2(m)
    return np.fromiter(
        (limiter(xi) for xi in x.tolist()), dtype=np.int64, count=x.size
    )


def parent_slots(
    reach: np.ndarray, x: np.ndarray | None, gap: float | Fraction | None
) -> np.ndarray:
    """``min(floor(log2 reach), g(x))`` per node — Algorithm 1's parent slot.

    ``reach`` bounds the non-overshooting fingers and ``x`` is the distance
    the limit is measured at (module docstring); ``gap=None`` is the basic
    scheme, which has no limit and does not read ``x``. ``floor(log2
    reach)`` is ``frexp``'s exponent minus one, exact for ``reach < 2^53``;
    ``reach = 0`` comes out as ``-1``. Returns a fresh int64 array.
    """
    slot = np.frexp(reach)[1].astype(np.int64)
    slot -= 1
    if gap is not None:
        np.minimum(slot, _balanced_limits(x, gap), out=slot)
    return slot
