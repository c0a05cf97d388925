"""Telemetry configuration.

One frozen dataclass holds every knob; the runtime installs a
:class:`~repro.telemetry.runtime.Telemetry` built from it (see
:func:`repro.telemetry.configure`). Telemetry is **disabled by default** —
the no-op path is a single module-global read per instrumentation site,
gated in CI by ``benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TelemetryConfig",
    "DEFAULT_PERCENTILES",
    "DEFAULT_BUCKET_OVERRIDES",
]

#: Percentile grid reported by hotspot load samples (Fig. 8 analogue).
DEFAULT_PERCENTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

#: Per-metric histogram bucket overrides, keyed by *unqualified* metric
#: name (no namespace prefix). Hop/round counts are small integers —
#: O(log n) for the protocols here — so unit-width buckets read directly
#: as "how many queries took exactly k hops", where the global
#: powers-of-two grid would smear 5..8 hops into one bucket.
DEFAULT_BUCKET_OVERRIDES: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("maan_query_hops", tuple(float(i) for i in range(1, 33))),
    ("churn_repair_rounds", tuple(float(i) for i in range(1, 33))),
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything the telemetry runtime needs to know.

    Parameters
    ----------
    enabled:
        Master switch. ``False`` (the default) keeps every instrumentation
        site on the no-op path.
    max_spans:
        Cap on retained finished spans; once full, the oldest are dropped
        and :attr:`~repro.telemetry.spans.SpanRecorder.dropped` counts the
        overflow. Bounded so long sweeps cannot exhaust memory. A
        streaming sink (:mod:`repro.telemetry.stream`) bypasses retention
        entirely.
    span_chunk_size:
        Streaming-export buffer: a :class:`~repro.telemetry.stream.JsonlSpanStream`
        flushes to its file every this-many buffered span lines, so peak
        resident spans stay bounded regardless of run length.
    span_sample_every:
        Streaming-export sampling knob: keep every k-th finished span per
        span name (1 = keep all). Deterministic — a counter per name, no
        RNG — and the sampled-out count is reported in the export's
        ``span_drops`` record rather than silently discarded.
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
    histogram_start, histogram_factor, histogram_count:
        The fixed log-spaced histogram bucket grid: upper bounds
        ``start * factor**i`` for ``i in range(count)`` (plus +Inf).
    histogram_bucket_overrides:
        Per-metric bucket grids keyed by unqualified metric name,
        overriding the global log-spaced grid (hop-count histograms use
        unit-width buckets). Stored as a tuple-of-pairs so the config
        stays hashable/frozen; see :meth:`bucket_overrides`.
    percentiles:
        Percentile grid computed by hotspot load samples.
    namespace:
        Prefix every exported metric name must carry (Prometheus
        convention); :meth:`MetricsRegistry.counter` prepends it when the
        caller omits it.
    """

    enabled: bool = False
    max_spans: int = 100_000
    span_chunk_size: int = 4096
    span_sample_every: int = 1
    sample_window: float = 0.0
    allow_wall_clock: bool = False
    tracing: bool = False
    site: str = "0"
    histogram_start: float = 1.0
    histogram_factor: float = 2.0
    histogram_count: int = 20
    histogram_bucket_overrides: tuple[tuple[str, tuple[float, ...]], ...] = (
        DEFAULT_BUCKET_OVERRIDES
    )
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    namespace: str = "repro"

    def __post_init__(self) -> None:
        if self.max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {self.max_spans}")
        if self.span_chunk_size <= 0:
            raise ValueError(
                f"span_chunk_size must be positive, got {self.span_chunk_size}"
            )
        if self.span_sample_every < 1:
            raise ValueError(
                f"span_sample_every must be >= 1, got {self.span_sample_every}"
            )
        if self.sample_window < 0:
            raise ValueError(
                f"sample_window cannot be negative, got {self.sample_window}"
            )
        if not self.site:
            raise ValueError("site must be a non-empty string")
        for name, buckets in self.histogram_bucket_overrides:
            if not buckets or list(buckets) != sorted(set(buckets)):
                raise ValueError(
                    f"bucket override for {name!r} must be strictly "
                    f"increasing: {buckets}"
                )
        if self.histogram_start <= 0:
            raise ValueError(
                f"histogram_start must be positive, got {self.histogram_start}"
            )
        if self.histogram_factor <= 1:
            raise ValueError(
                f"histogram_factor must exceed 1, got {self.histogram_factor}"
            )
        if self.histogram_count <= 0:
            raise ValueError(
                f"histogram_count must be positive, got {self.histogram_count}"
            )
        for q in self.percentiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"percentiles must lie in (0, 1), got {q}")

    def default_buckets(self) -> tuple[float, ...]:
        """The log-spaced histogram bucket upper bounds (excluding +Inf)."""
        return tuple(
            self.histogram_start * self.histogram_factor**i
            for i in range(self.histogram_count)
        )

    def bucket_overrides(self) -> dict[str, tuple[float, ...]]:
        """The per-metric bucket overrides as a name -> buckets mapping."""
        return dict(self.histogram_bucket_overrides)
