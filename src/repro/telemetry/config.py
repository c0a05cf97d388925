"""Telemetry configuration.

One frozen dataclass holds what a caller chooses; the runtime installs a
:class:`~repro.telemetry.runtime.Telemetry` built from it (see
:func:`repro.telemetry.configure`). Telemetry is **disabled by default** —
the no-op path is a single module-global read per instrumentation site,
gated in CI by ``benchmarks/bench_telemetry_overhead.py``.

The values no caller varies are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TelemetryConfig",
    "NAMESPACE",
    "SPAN_CHUNK_SIZE",
    "DEFAULT_PERCENTILES",
    "BUCKET_OVERRIDES",
]

#: Prefix every exported metric name carries (Prometheus convention);
#: :meth:`Telemetry.counter <repro.telemetry.runtime.Telemetry.counter>`
#: prepends it when the caller omits it.
NAMESPACE = "repro"

#: Span lines the JSONL writer buffers before one write to its file, so
#: resident spans stay bounded whatever the run length.
SPAN_CHUNK_SIZE = 4096

#: Percentile grid reported by hotspot load samples (Fig. 8 analogue).
DEFAULT_PERCENTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

#: Per-metric histogram buckets, keyed by *unqualified* metric name (no
#: namespace prefix), in place of the log-spaced grid. Hop/round counts
#: are small integers — O(log n) for the protocols here — so unit-width
#: buckets read directly as "how many queries took exactly k hops", where
#: the powers-of-two grid would smear 5..8 hops into one bucket.
BUCKET_OVERRIDES: dict[str, tuple[float, ...]] = {
    "maan_query_hops": tuple(float(i) for i in range(1, 33)),
    "churn_repair_rounds": tuple(float(i) for i in range(1, 33)),
}


@dataclass(frozen=True)
class TelemetryConfig:
    """What a caller sets on the telemetry runtime.

    Parameters
    ----------
    enabled:
        Master switch. ``False`` (the default) keeps every instrumentation
        site on the no-op path.
    sample_window:
        Period (sim seconds) of in-run hotspot sampling. When > 0,
        transports that own an engine install a tick hook that calls
        ``HotspotAccountant.sample()`` every window, building the rolling
        imbalance-factor series. 0 (the default) disables periodic
        sampling.
    allow_wall_clock:
        Opt-in for real-time transports to bind the telemetry clock to a
        wall-clock offset (``UdpRpcTransport.now`` is the one library
        wall-clock read). Off by default: wall-clocked exports are not
        replay-deterministic.
    tracing:
        Opt-in distributed tracing. When ``True``, every root span is
        assigned a ``trace_id``, ``repro.net`` threads a compact
        :class:`~repro.telemetry.spans.TraceContext` through message
        payloads, and the per-hop span sites (``dat.push`` /
        ``chord.lookup_hop`` / ...) record. Off by default so exports —
        and message byte sizes — are unchanged unless asked for;
        propagation overhead is gated at ≤5% over span-enabled mode by
        ``benchmarks/bench_telemetry_overhead.py``.
    site:
        Identity prefix for qualified span ids (``"<site>:<span_id>"``).
        ``"0"`` in the single-process simulator; fleet agents set their
        node ident so merged per-node span exports never collide.
    """

    enabled: bool = False
    sample_window: float = 0.0
    allow_wall_clock: bool = False
    tracing: bool = False
    site: str = "0"

    def __post_init__(self) -> None:
        if not self.sample_window >= 0:  # NaN included
            raise ValueError(
                f"sample_window must be non-negative, got {self.sample_window}"
            )
        if not self.site:
            raise ValueError("site must be a non-empty string")
