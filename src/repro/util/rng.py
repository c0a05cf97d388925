"""Seeded random-number plumbing.

Every stochastic component in the library takes either an integer seed or a
:class:`numpy.random.Generator`. These helpers normalize the two and derive
independent child streams so experiments are reproducible run-to-run while
sub-components stay statistically independent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ensure_rng", "spawn_seeds", "RngMixin"]


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a fresh OS-entropy generator; an existing generator is
    passed through unchanged; an integer seeds a new PCG64 stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None, count: int) -> list[int]:
    """Return ``count`` independent 63-bit integer seeds derived from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


class RngMixin:
    """Mixin storing a normalized generator as ``self._rng``."""

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self._rng = ensure_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The component's random generator."""
        return self._rng

    def _choice_index(self, weights: Sequence[float]) -> int:
        """Sample an index proportionally to non-negative ``weights``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        probabilities = np.asarray(weights, dtype=float) / total
        return int(self._rng.choice(len(probabilities), p=probabilities))
