"""Consistent hashing and locality-preserving hashing.

Two hash families are needed by the paper:

* **Consistent hashing** (Chord / DAT): SHA-1 of a name truncated into the
  identifier space. Used for node identifiers derived from addresses and
  for DAT *rendezvous keys* (e.g. ``sha1_id("cpu-usage", space)``).

* **Locality-preserving hashing** (MAAN, Sec. 2.2): a monotone map from a
  numeric attribute domain ``[lo, hi]`` onto the identifier circle so that
  numerically close values land on nearby nodes and range queries become
  contiguous identifier segments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.chord.idspace import IdSpace
from repro.errors import IdentifierError

__all__ = ["sha1_id", "LocalityPreservingHash"]


def sha1_id(name: str | bytes, space: IdSpace) -> int:
    """Map ``name`` into ``space`` via SHA-1 (consistent hashing).

    The 160-bit digest is truncated to the top ``space.bits`` bits, which
    preserves the uniformity of SHA-1 for any ``bits <= 160``. For spaces
    wider than 160 bits the digest is extended by chained hashing.
    """
    data = name.encode("utf-8") if isinstance(name, str) else bytes(name)
    digest = hashlib.sha1(data).digest()
    while len(digest) * 8 < space.bits:
        digest += hashlib.sha1(digest).digest()
    value = int.from_bytes(digest, "big")
    excess = len(digest) * 8 - space.bits
    return value >> excess


@dataclass(frozen=True)
class LocalityPreservingHash:
    """Monotone hash ``H: [lo, hi] -> [0, 2^b)`` for one numeric attribute.

    MAAN's property (Sec. 2.2): ``H(v1) <= H(v2)`` iff ``v1 <= v2``, so the
    nodes responsible for a value range ``[l, u]`` are exactly the successors
    between ``successor(H(l))`` and ``successor(H(u))``.

    The map is affine over the attribute domain. Values are clamped to the
    domain rather than rejected, because live sensors occasionally report
    readings epsilon outside their nominal bounds.
    """

    space: IdSpace
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise IdentifierError(
                f"attribute domain requires high > low, got [{self.low}, {self.high}]"
            )

    def __call__(self, value: float) -> int:
        """Hash ``value`` (clamped into the domain) to an identifier."""
        clamped = min(max(float(value), self.low), self.high)
        fraction = (clamped - self.low) / (self.high - self.low)
        # Scale into [0, 2^b - 1]; the top of the domain maps to max_id so
        # the image stays inside the space.
        return min(int(fraction * self.space.size), self.space.max_id)
