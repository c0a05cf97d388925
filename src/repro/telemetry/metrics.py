"""Labeled metrics: counters, gauges, and log-spaced-bucket histograms.

Prometheus-shaped but sim-clocked: every sample carries the timestamp of
its last update read from the telemetry clock (the discrete-event engine's
virtual ``now``), never the wall clock, so exported streams are
bit-identical across replays of a seeded run.

All update paths take the registry lock — the threaded UDP transport
increments counters from its receive thread and callers' threads
concurrently (same hazard :class:`~repro.telemetry.hotspot.HotspotAccountant`
guards against).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

__all__ = [
    "log_buckets",
    "MetricSample",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Label values keyed by label name, in the metric's declared order.
LabelValues = tuple[str, ...]


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds ``start * factor**i``.

    The grid every histogram uses unless overridden — log spacing matches
    the quantities this repo measures (hop counts, message loads, byte
    sizes), which span orders of magnitude with most mass at the low end.
    """
    if start <= 0 or factor <= 1 or count <= 0:
        raise ValueError(
            f"invalid bucket grid (start={start}, factor={factor}, count={count})"
        )
    return tuple(start * factor**i for i in range(count))


@dataclass(frozen=True)
class MetricSample:
    """One exported time series point: a label set and its current value."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[tuple[str, str], ...]
    value: float
    updated_at: float
    #: Histogram-only: cumulative bucket counts aligned with ``buckets``.
    bucket_counts: tuple[int, ...] = ()
    buckets: tuple[float, ...] = ()
    count: int = 0

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Metric:
    """Base for one named, labeled metric family."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        label_names: tuple[str, ...],
        clock: Callable[[], float],
        lock: threading.Lock,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.label_names = label_names
        self._clock = clock
        self._lock = lock
        self._updated: dict[LabelValues, float] = {}

    def _key(self, labels: Mapping[str, object]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_for(self, key: LabelValues) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.label_names, key))

    def samples(self) -> list[MetricSample]:
        """Current samples, one per label set, sorted by label values."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (messages sent, builds run, ...)."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        label_names: tuple[str, ...],
        clock: Callable[[], float],
        lock: threading.Lock,
    ) -> None:
        super().__init__(name, label_names, clock, lock)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be non-negative) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
            self._updated[key] = self._clock()

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[MetricSample]:
        with self._lock:
            return [
                MetricSample(
                    name=self.name,
                    kind=self.kind,
                    labels=self._labels_for(key),
                    value=value,
                    updated_at=self._updated[key],
                )
                for key, value in sorted(self._values.items())
            ]


class Gauge(Metric):
    """A value that can go up and down (tree height, imbalance factor)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        label_names: tuple[str, ...],
        clock: Callable[[], float],
        lock: threading.Lock,
    ) -> None:
        super().__init__(name, label_names, clock, lock)
        self._values: dict[LabelValues, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)
            self._updated[key] = self._clock()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
            self._updated[key] = self._clock()

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[MetricSample]:
        with self._lock:
            return [
                MetricSample(
                    name=self.name,
                    kind=self.kind,
                    labels=self._labels_for(key),
                    value=value,
                    updated_at=self._updated[key],
                )
                for key, value in sorted(self._values.items())
            ]


@dataclass
class _HistogramSeries:
    """Mutable per-label-set histogram state."""

    bucket_counts: list[int]
    total: float = 0.0
    count: int = 0


class Histogram(Metric):
    """Distribution over fixed log-spaced buckets (hops, bytes, loads).

    ``buckets`` are *upper bounds*; an implicit +Inf bucket catches the
    tail, so ``observe`` never loses a sample. Bucket counts are stored
    per-bucket (not cumulative).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        label_names: tuple[str, ...],
        clock: Callable[[], float],
        lock: threading.Lock,
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, label_names, clock, lock)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing: {buckets}"
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[LabelValues, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labeled series."""
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(
                    bucket_counts=[0] * (len(self.buckets) + 1)
                )
                self._series[key] = series
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1
            self._updated[key] = self._clock()

    def samples(self) -> list[MetricSample]:
        with self._lock:
            return [
                MetricSample(
                    name=self.name,
                    kind=self.kind,
                    labels=self._labels_for(key),
                    value=series.total,
                    updated_at=self._updated[key],
                    bucket_counts=tuple(series.bucket_counts),
                    buckets=self.buckets,
                    count=series.count,
                )
                for key, series in sorted(self._series.items())
            ]


class MetricsRegistry:
    """Get-or-create store of metric families, keyed by name.

    Re-requesting a name returns the existing family — instrumentation
    sites can therefore call ``registry.counter("x").inc()`` on every hit
    without caching handles — but a kind or label-set mismatch on an
    existing name is an error (it would silently fork the series).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        default_buckets: tuple[float, ...] | None = None,
    ) -> None:
        self._clock = clock
        self._default_buckets = (
            default_buckets if default_buckets is not None else log_buckets(1, 2, 20)
        )
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self,
        name: str,
        kind: type[Metric],
        labels: tuple[str, ...],
        **kwargs: object,
    ) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, not a "
                        f"{kind.kind}"  # type: ignore[attr-defined]
                    )
                if existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} declared with labels "
                        f"{existing.label_names}, requested {labels}"
                    )
                return existing
            metric = kind(
                name, labels, self._clock, self._lock, **kwargs
            )  # type: ignore[arg-type]
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, labels: tuple[str, ...] = ()) -> Counter:
        """Get or create the counter family ``name``."""
        metric = self._get_or_create(name, Counter, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, labels: tuple[str, ...] = ()) -> Gauge:
        """Get or create the gauge family ``name``."""
        metric = self._get_or_create(name, Gauge, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        metric = self._get_or_create(
            name,
            Histogram,
            labels,
            buckets=buckets if buckets is not None else self._default_buckets,
        )
        assert isinstance(metric, Histogram)
        return metric

    def samples(self) -> Iterator[MetricSample]:
        """Every current sample across all families (export order)."""
        with self._lock:
            families = [self._metrics[name] for name in sorted(self._metrics)]
        for family in families:
            yield from family.samples()

    def reset(self) -> None:
        """Drop every metric family (between experiment rounds)."""
        with self._lock:
            self._metrics.clear()
