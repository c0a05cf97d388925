"""Network latency models for the simulated transport.

The paper's cluster connects nodes over 1-Gigabit Ethernet (sub-millisecond
LAN latencies); Grid/PlanetLab deployments see wide-area latencies of tens
to hundreds of milliseconds. The models here let experiments interpolate
between the two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.util.rng import ensure_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["LatencyModel", "ConstantLatency", "LanWanLatency"]


class LatencyModel(ABC):
    """Strategy producing a one-way message delay between two nodes."""

    @abstractmethod
    def sample(self, source: int, destination: int) -> float:
        """One-way delay in seconds for a message ``source -> destination``."""

    def sample_array(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Delays for many message pairs at once (batched transport path).

        The default delegates to :meth:`sample` element-wise, so stochastic
        models consume their RNG stream in exactly the per-message order —
        batched and scalar sends stay trace-identical. Deterministic models
        override this with a closed form.
        """
        return np.fromiter(
            (
                self.sample(int(src), int(dst))
                for src, dst in zip(sources.tolist(), destinations.tolist())
            ),
            dtype=np.float64,
            count=len(sources),
        )


class ConstantLatency(LatencyModel):
    """Fixed delay for every message (deterministic simulations)."""

    def __init__(self, delay: float = 0.001) -> None:
        check_non_negative("delay", delay)
        self.delay = float(delay)

    def sample(self, source: int, destination: int) -> float:
        return self.delay

    def sample_array(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        return np.full(len(sources), self.delay, dtype=np.float64)


class LanWanLatency(LatencyModel):
    """Two-tier model: cheap intra-site hops, expensive wide-area hops.

    Nodes are assigned to sites by ``ident % n_sites``; messages between
    nodes on the same site take LAN latency, others take WAN latency with
    multiplicative jitter. This approximates a multi-site Grid (the paper's
    motivating deployment) without a full topology generator.
    """

    def __init__(
        self,
        n_sites: int = 16,
        lan_delay: float = 0.0005,
        wan_delay: float = 0.050,
        jitter: float = 0.2,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if n_sites <= 0:
            raise ValueError(f"n_sites must be positive, got {n_sites}")
        check_non_negative("lan_delay", lan_delay)
        check_non_negative("wan_delay", wan_delay)
        check_probability("jitter", jitter)
        self.n_sites = int(n_sites)
        self.lan_delay = float(lan_delay)
        self.wan_delay = float(wan_delay)
        self.jitter = float(jitter)
        self._rng = ensure_rng(rng)

    def site_of(self, ident: int) -> int:
        """Deterministic site assignment for a node identifier."""
        return ident % self.n_sites

    def sample(self, source: int, destination: int) -> float:
        base = (
            self.lan_delay
            if self.site_of(source) == self.site_of(destination)
            else self.wan_delay
        )
        if self.jitter == 0:
            return base
        factor = 1.0 + float(self._rng.uniform(-self.jitter, self.jitter))
        return base * factor
