"""The telemetry runtime: one process-global, disabled-by-default instance.

Instrumentation sites never hold telemetry objects; they call the
module-level helpers (:func:`span`, :func:`count`, :func:`observe`,
:func:`gauge_set`), each of which starts with a single read of the module
global. When telemetry is disabled — the default — that read returns
``None`` and the helper returns immediately (handing back the shared
:data:`~repro.telemetry.spans.NULL_SPAN` where a span is expected). The
benchmark ``benchmarks/bench_telemetry_overhead.py`` gates this no-op path
at ≤3% overhead on the balanced-DAT build hot path.

The runtime's clock defaults to a constant 0.0; hosts that own a time
source bind it with :func:`bind_clock` (``SimTransport`` binds the
discrete-event engine's virtual ``now`` on construction). Wall clocks are
never read here — a telemetry stream stamped from
``time.time()`` would differ across replays of the same seeded run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.telemetry.config import BUCKET_OVERRIDES, NAMESPACE, TelemetryConfig
from repro.telemetry.hotspot import HotspotAccountant
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import (
    NULL_SPAN,
    TRACE_KEY,
    Span,
    SpanBase,
    SpanRecorder,
    TraceContext,
)

__all__ = [
    "Telemetry",
    "configure",
    "disable",
    "active",
    "is_enabled",
    "enabled",
    "bind_clock",
    "span",
    "trace_span",
    "remote_span",
    "tracing_enabled",
    "propagate_current",
    "count",
    "observe",
    "gauge_set",
]


#: What :meth:`Telemetry.counter` and friends prepend to a bare metric name.
_PREFIX = NAMESPACE + "_"


def _zero_clock() -> float:
    return 0.0


class Telemetry:
    """One configured telemetry instance: metrics + spans + hotspots.

    Construct directly for isolated use (tests); production code installs
    one globally via :func:`configure` and reaches it through the helpers.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig(enabled=True)
        self._clock: Callable[[], float] = _zero_clock
        self.metrics = MetricsRegistry(clock=self.now)
        self.spans = SpanRecorder(
            clock=self.now, site=self.config.site, tracing=self.config.tracing
        )
        self._hotspots: dict[str, HotspotAccountant] = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current telemetry time (sim clock once bound; 0.0 before)."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` as the time source for every future timestamp."""
        self._clock = clock

    # -- metrics (namespaced) ----------------------------------------------

    def _qualify(self, name: str) -> str:
        return name if name.startswith(_PREFIX) else _PREFIX + name

    def _unqualify(self, name: str) -> str:
        return name[len(_PREFIX):] if name.startswith(_PREFIX) else name

    def counter(self, name: str, labels: tuple[str, ...] = ()) -> Counter:
        """Get or create the namespaced counter family ``name``."""
        return self.metrics.counter(self._qualify(name), labels)

    def gauge(self, name: str, labels: tuple[str, ...] = ()) -> Gauge:
        """Get or create the namespaced gauge family ``name``."""
        return self.metrics.gauge(self._qualify(name), labels)

    def histogram(
        self,
        name: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create the namespaced histogram family ``name``.

        When the caller passes no explicit ``buckets``, the per-metric
        :data:`~repro.telemetry.config.BUCKET_OVERRIDES` (keyed by
        unqualified name) are consulted before falling back to the
        registry's log-spaced grid.
        """
        if buckets is None:
            buckets = BUCKET_OVERRIDES.get(self._unqualify(name))
        return self.metrics.histogram(self._qualify(name), labels, buckets)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span; finish it via context manager or ``finish()``."""
        return self.spans.start(name, **attrs)

    def trace_span(self, name: str, **attrs: object) -> Span:
        """Open a span rooting a new trace (ignores the ambient span)."""
        return self.spans.start_trace(name, **attrs)

    def remote_span(self, source: object, name: str, **attrs: object) -> Span:
        """Open a span parented by a remote caller's trace context.

        ``source`` may be a :class:`~repro.telemetry.spans.TraceContext`,
        a message (anything with a ``payload`` dict), a payload dict, or
        ``None`` — context extraction is tolerant, so handlers can pass
        the incoming request unconditionally.
        """
        return self.spans.start_remote(TraceContext.extract(source), name, **attrs)

    # -- hotspot accounting ------------------------------------------------

    def hotspots(self, name: str = "transport") -> HotspotAccountant:
        """Get or create the named per-node load accountant.

        Transports register under their own name (``"transport"`` by
        default); experiments create per-scheme accountants (the Fig. 8
        harness uses ``"fig8.basic"`` / ``"fig8.balanced"`` / ...).
        """
        with self._lock:
            accountant = self._hotspots.get(name)
            if accountant is None:
                accountant = HotspotAccountant()
                self._hotspots[name] = accountant
            return accountant

    def register_hotspots(self, name: str, accountant: HotspotAccountant) -> None:
        """Adopt an externally owned accountant (a transport's counters)."""
        with self._lock:
            self._hotspots[name] = accountant

    def hotspot_names(self) -> list[str]:
        """Registered accountant names, sorted."""
        with self._lock:
            return sorted(self._hotspots)

    def reset(self) -> None:
        """Clear metrics, finished spans, and hotspot accountants."""
        self.metrics.reset()
        self.spans.reset()
        with self._lock:
            for accountant in self._hotspots.values():
                accountant.reset()


# The process-global instance. ``None`` means disabled — the common case —
# so every helper's fast path is one global read and one ``is None`` test.
_active: Telemetry | None = None


def configure(
    config: TelemetryConfig | None = None, **overrides: object
) -> Telemetry | None:
    """Install the global telemetry runtime from ``config`` (or overrides).

    ``configure(enabled=True)`` is the usual call. A config with
    ``enabled=False`` (the default ``TelemetryConfig()``) uninstalls —
    configure-as-written always leaves the global matching the config.
    Returns the installed instance, or ``None`` when disabled.
    """
    global _active
    if config is None:
        config = TelemetryConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("pass either a TelemetryConfig or keyword overrides, not both")
    if not config.enabled:
        _active = None
        return None
    _active = Telemetry(config)
    return _active


def disable() -> None:
    """Uninstall the global runtime; every helper reverts to the no-op path."""
    global _active
    _active = None


def active() -> Telemetry | None:
    """The installed runtime, or ``None`` when telemetry is disabled."""
    return _active


def is_enabled() -> bool:
    """Whether a telemetry runtime is currently installed."""
    return _active is not None


@contextmanager
def enabled(
    config: TelemetryConfig | None = None, **overrides: object
) -> Iterator[Telemetry]:
    """Temporarily install a runtime (tests / scoped experiment runs).

    Restores the previous global — installed or not — on exit.
    """
    global _active
    previous = _active
    if config is None:
        overrides.setdefault("enabled", True)
        config = TelemetryConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("pass either a TelemetryConfig or keyword overrides, not both")
    if not config.enabled:
        raise ValueError("enabled() requires a config with enabled=True")
    instance = Telemetry(config)
    _active = instance
    try:
        yield instance
    finally:
        _active = previous


def bind_clock(clock: Callable[[], float]) -> None:
    """Bind the time source on the active runtime (no-op when disabled)."""
    tel = _active
    if tel is not None:
        tel.bind_clock(clock)


# -- no-op-gated helpers (the instrumentation surface) ---------------------


def span(name: str, **attrs: object) -> SpanBase:
    """Open a span on the active runtime; :data:`NULL_SPAN` when disabled."""
    tel = _active
    if tel is None:
        return NULL_SPAN
    return tel.span(name, **attrs)


def tracing_enabled() -> bool:
    """Whether distributed tracing is on (runtime installed + ``tracing``).

    Per-hop span sites gate on this so span name sets — and message byte
    sizes — are unchanged for plain span-enabled runs.
    """
    tel = _active
    return tel is not None and tel.spans.tracing


def trace_span(name: str, **attrs: object) -> SpanBase:
    """Open a span that roots a new trace on the active runtime.

    Unlike :func:`span`, the new span takes no parent from this thread's
    nesting stack — under tracing it mints a fresh ``trace_id``. Protocol
    events that are causal units of their own (each continuous-mode DAT
    push, each gather round) start here so they assemble into distinct
    rooted trees even when a harness span (an experiment phase) is open.
    Returns :data:`NULL_SPAN` when disabled.
    """
    tel = _active
    if tel is None:
        return NULL_SPAN
    return tel.trace_span(name, **attrs)


def remote_span(source: object, name: str, **attrs: object) -> SpanBase:
    """Open a span joined to a remote caller's trace.

    ``source`` is the incoming request (or its payload, or an explicit
    :class:`~repro.telemetry.spans.TraceContext`). Returns
    :data:`NULL_SPAN` unless tracing is enabled — remote spans are a
    tracing-mode feature; plain span-enabled runs see no new span names.
    """
    tel = _active
    if tel is None or not tel.spans.tracing:
        return NULL_SPAN
    return tel.remote_span(source, name, **attrs)


def propagate_current(message: object) -> None:
    """Thread the current span's trace context into ``message``'s payload.

    The ``repro.net`` send paths call this on every outbound message so
    services get propagation for free. Fills only when the payload does
    not already carry a context — forwarding hops that must *replace* the
    incoming context do so explicitly via ``Span.propagate``. No-op when
    tracing is off or no span is open.
    """
    tel = _active
    if tel is None:
        return
    recorder = tel.spans
    if not recorder.tracing:
        return
    current = recorder.current()
    if current is None:
        return
    payload = getattr(message, "payload", None)
    if isinstance(payload, dict) and TRACE_KEY not in payload:
        current.propagate(message)


def count(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment a counter on the active runtime (no-op when disabled).

    Label names are taken from the keyword names, sorted, so every call
    site for a given metric must pass the same label set.
    """
    tel = _active
    if tel is None:
        return
    tel.counter(name, labels=tuple(sorted(labels))).inc(amount, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation (no-op when disabled)."""
    tel = _active
    if tel is None:
        return
    tel.histogram(name, labels=tuple(sorted(labels))).observe(value, **labels)


def gauge_set(name: str, value: float, **labels: object) -> None:
    """Set a gauge (no-op when disabled)."""
    tel = _active
    if tel is None:
        return
    tel.gauge(name, labels=tuple(sorted(labels))).set(value, **labels)
