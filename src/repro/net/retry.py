"""Retry/backoff policy for the RPC plane.

One :class:`RetryPolicy` value describes everything the request path may
do on loss: the per-attempt deadline, how many attempts to make before
giving up, and the exponential-backoff-with-jitter schedule between
attempts. The default policy (``RetryPolicy()``) is a single attempt with
the transport's default deadline — exactly what the hand-rolled
``Transport.call`` sites did before this layer existed, so migrating a
caller onto :class:`~repro.net.client.RpcClient` with the default policy
is behavior-preserving.

Backoff jitter is deterministic: the client draws it from a
:mod:`repro.util.rng` generator seeded per node, so a seeded simulation
replays the identical retry schedule run-to-run (every random draw under
``src/`` comes from a seeded generator). Bounded attempts plus exponential
backoff are also the retry-storm guard — under total loss a call makes at
most ``max_attempts`` sends, spaced increasingly far apart, instead of
hammering the network on a fixed period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy", "DEFAULT_POLICY", "UNBOUNDED_POLICY"]

#: Hard ceiling on attempts — a policy asking for more is a bug, not a
#: robustness setting (the storm guard of last resort).
_MAX_ATTEMPTS_CAP = 64


@dataclass(frozen=True)
class RetryPolicy:
    """How one logical RPC behaves on the wire.

    Parameters
    ----------
    timeout:
        Per-attempt reply deadline in transport seconds. ``None`` adopts
        the transport's ``default_timeout``; ``math.inf`` disables the
        deadline entirely (the call waits forever — the historical
        behavior of the DAT on-demand and MAAN walk paths).
    max_attempts:
        Total sends before the call fails over to ``on_timeout``. ``1``
        means no retries.
    backoff_base:
        Extra delay before retry ``k`` (1-based): ``base * factor**(k-1)``,
        capped at ``backoff_max``. ``0.0`` retries immediately on expiry.
    backoff_factor:
        Exponential growth factor of the backoff schedule.
    backoff_max:
        Upper bound on any single backoff delay.
    jitter:
        Symmetric jitter fraction in ``[0, 1]``: each backoff delay is
        scaled by a deterministic factor in ``[1 - jitter, 1 + jitter]``
        drawn from the client's seeded generator (decorrelates retry
        storms across nodes without breaking replay determinism).
    """

    timeout: float | None = None
    max_attempts: int = 1
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1 or self.max_attempts > _MAX_ATTEMPTS_CAP:
            raise ValueError(
                f"max_attempts must be in [1, {_MAX_ATTEMPTS_CAP}], "
                f"got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def unbounded(self) -> bool:
        """True when attempts never expire (no deadline is scheduled)."""
        return self.timeout is not None and math.isinf(self.timeout)

    def attempt_timeout(self, transport_default: float) -> float:
        """The per-attempt deadline, resolving ``None`` to the transport's."""
        return transport_default if self.timeout is None else self.timeout

    def backoff(self, retry: int, rng: np.random.Generator | None) -> float:
        """Delay before 1-based retry number ``retry`` (deterministic).

        Consumes one draw from ``rng`` only when ``jitter`` is non-zero,
        so jitter-free policies leave the caller's random stream untouched
        (and may pass ``None``).
        """
        if retry < 1:
            raise ValueError(f"retry must be >= 1, got {retry}")
        if self.backoff_base <= 0.0:
            return 0.0
        delay = min(
            self.backoff_base * self.backoff_factor ** (retry - 1),
            self.backoff_max,
        )
        if self.jitter > 0.0:
            assert rng is not None, "a jittered backoff draws from rng"
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(delay, 0.0)

    def schedule(self, rng: np.random.Generator) -> list[float]:
        """The full backoff schedule (one delay per retry) — for tests."""
        return [self.backoff(k, rng) for k in range(1, self.max_attempts)]


#: Single attempt, transport-default deadline: byte-for-byte the behavior
#: of a bare ``Transport.call`` before the net layer existed.
DEFAULT_POLICY = RetryPolicy()

#: Single attempt that never expires — the historical semantics of the DAT
#: on-demand round and the MAAN walk (no deadline was ever scheduled).
UNBOUNDED_POLICY = RetryPolicy(timeout=math.inf)
