"""Identifier probing for balanced identifier assignment (paper Sec. 3.5).

Randomly chosen identifiers give adjacent-gap ratios of ``O(log n)``, which
ruins the balanced DAT's constant branching factor. Adler et al. (STOC 2003)
proposed *identifier probing*: a joining node picks a random point, probes
``O(log n)`` neighbors of that point's successor, and splits the largest
owned interval among those probed. The max/min gap ratio then stays bounded
by a constant, and Sec. 5.2 shows the balanced DAT max branching becomes a
small constant (~4) under this scheme.

The prototype (Sec. 4) implements this at join time: the contacted successor
"splits the maximal interval of its fingers and returns the designated node
identifier to the joining node". Every probing ring is built by
:func:`repro.chord.ringarray.fast_probing_ids`; the join-by-join procedure
against a ring object it is proved against is ``probe_split_identifier`` in
``tests/oracles.py``. This module holds the probe count both share.
"""

from __future__ import annotations

import math

from repro.util.bits import ceil_log2

__all__ = ["default_probe_count"]


def default_probe_count(n_nodes: int, multiplier: float = 2.0) -> int:
    """Number of neighbors to probe: ``ceil(multiplier * ceil_log2(n))``, >= 1.

    ``n`` is the ring size the join sees, so the count only moves when
    ``n`` passes a power of two.
    """
    if n_nodes <= 1:
        return 1
    return max(1, math.ceil(multiplier * ceil_log2(n_nodes)))
