"""Mergeable aggregate functions ``f: X+ -> X`` (paper Sec. 2.3).

DAT aggregation applies ``f`` recursively up the tree, so every supported
aggregate must be expressible as a *mergeable partial state*: leaves lift
their local value into a state, interior nodes merge children states with
their own, and the root finalizes. Merging must be associative and
commutative — the tree shape and child arrival order must not change the
result — which the property-based tests assert for every registered
aggregate.

A *column aggregate* (:class:`ColumnAggregate`) declares its partial state
once, as columns: each has a dtype and one elementwise ufunc that merges it
(``np.add``, ``np.minimum`` or ``np.maximum``). The scalar ``merge`` comes
from the ufuncs, and the slab (:mod:`repro.core.slab`) runs the same spec
on arrays through ``lift_columns`` and ``row``.

Built-ins: SUM, COUNT, MIN, MAX, AVG, HISTOGRAM (fixed bins) and QUANTILE
(over histogram bins) are column aggregates; STD (Chan et al. parallel
variance) and TOP-K are not. :func:`get_aggregate` instantiates one by
name.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import AggregationError, UnknownAggregateError

__all__ = [
    "Aggregate",
    "ColumnAggregate",
    "SumAggregate",
    "CountAggregate",
    "MinAggregate",
    "MaxAggregate",
    "AverageAggregate",
    "StdAggregate",
    "HistogramAggregate",
    "QuantileAggregate",
    "TopKAggregate",
    "get_aggregate",
]


class Aggregate(ABC):
    """One aggregate function as a mergeable-state triple.

    Subclasses define how a raw reading becomes a partial state
    (:meth:`lift`), how two partial states combine (:meth:`merge`), and how
    a state becomes the user-visible result (:meth:`finalize`).
    """

    #: Registry name ("sum", "avg", ...). Subclasses must override.
    name: str = "abstract"

    @abstractmethod
    def lift(self, value: float) -> Any:
        """Wrap one local reading into a partial state."""

    @abstractmethod
    def merge(self, left: Any, right: Any) -> Any:
        """Combine two partial states (associative, commutative)."""

    @abstractmethod
    def finalize(self, state: Any) -> Any:
        """Extract the final aggregate value from a state."""

    def merge_all(self, states: Iterable[Any]) -> Any:
        """Fold :meth:`merge` over a non-empty iterable of states."""
        iterator = iter(states)
        try:
            acc = next(iterator)
        except StopIteration:
            raise AggregationError(f"{self.name}: cannot merge zero states") from None
        for state in iterator:
            acc = self.merge(acc, state)
        return acc

    def aggregate(self, values: Iterable[float]) -> Any:
        """Convenience: lift + merge + finalize a flat value collection."""
        return self.finalize(self.merge_all(self.lift(v) for v in values))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


#: The scalar twin of each column ufunc: what a merge of two rows applies.
#: ``np.minimum`` / ``np.maximum`` exactly: a NaN on either side wins and a
#: tie keeps the right one (``-0.0`` from ``(0.0, -0.0)``), where the builtin
#: ``min`` / ``max`` keep or drop a NaN by argument order.
_SCALAR_MERGE = {
    np.add: operator.add,
    np.minimum: lambda left, right: left if left < right or left != left else right,
    np.maximum: lambda left, right: left if left > right or left != left else right,
}


class ColumnAggregate(Aggregate):
    """An aggregate whose partial state is a row of typed columns.

    A subclass declares ``columns``, one ``(dtype, ufunc)`` pair per state
    column (per instance when its parameters set them), and defines
    :meth:`lift`, which fixes the state's shape (a number, or a tuple with
    one entry per column), and :meth:`lift_columns`.
    """

    columns: tuple[tuple[type, np.ufunc], ...] = ()
    #: Whether :meth:`lift` reads its reading (count's does not): the slab
    #: merges again on a changed reading only when it does.
    lift_reads_value: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if len(cls.columns) == 1 and "merge" not in cls.__dict__:
            # A number merges with the scalar op itself: no frame per merge.
            cls.merge = staticmethod(_SCALAR_MERGE[cls.columns[0][1]])  # type: ignore[method-assign]

    @functools.cached_property
    def _merge_columns(self) -> Callable[[Sequence[Any], Sequence[Any]], Iterator[Any]]:
        ops = [_SCALAR_MERGE[ufunc] for _dtype, ufunc in self.columns]
        if len(set(ops)) == 1:  # one map of the shared op, all in C
            return functools.partial(map, ops[0])
        return functools.partial(map, lambda op, left, right: op(left, right), ops)

    def merge(self, left: tuple[Any, ...], right: tuple[Any, ...]) -> tuple[Any, ...]:
        if len(left) != len(right):
            raise AggregationError(f"{self.name}: state widths {len(left)}, {len(right)}")
        return tuple(self._merge_columns(left, right))

    @abstractmethod
    def lift_columns(self, values: np.ndarray) -> list[np.ndarray]:
        """:meth:`lift` over a vector of readings: fresh state columns, one
        row per reading, with the declared dtypes."""

    @functools.cached_property
    def _tuple_state(self) -> bool:
        return isinstance(self.lift(0.0), tuple)

    def row(self, columns: Sequence[np.ndarray], i: int) -> Any:
        """Row ``i`` of state ``columns`` in the shape :meth:`lift` gives."""
        state = tuple(column[i].item() for column in columns)
        return state if self._tuple_state else state[0]

    def finalize(self, state: Any) -> Any:
        return state


class _ReadingAggregate(ColumnAggregate):
    """A one-column aggregate whose state is a reading: sum, min, max."""

    def lift(self, value: float) -> float:
        return float(value)

    def lift_columns(self, values: np.ndarray) -> list[np.ndarray]:
        return [np.array(values, dtype=np.float64)]


class SumAggregate(_ReadingAggregate):
    """Global sum."""

    name = "sum"
    columns = ((np.float64, np.add),)


class CountAggregate(ColumnAggregate):
    """Number of contributing nodes (each local reading counts once)."""

    name = "count"
    columns = ((np.int64, np.add),)
    lift_reads_value = False

    def lift(self, value: float) -> int:
        return 1

    def lift_columns(self, values: np.ndarray) -> list[np.ndarray]:
        return [np.ones(len(values), dtype=np.int64)]


class MinAggregate(_ReadingAggregate):
    """Global minimum."""

    name = "min"
    columns = ((np.float64, np.minimum),)


class MaxAggregate(_ReadingAggregate):
    """Global maximum."""

    name = "max"
    columns = ((np.float64, np.maximum),)


class AverageAggregate(ColumnAggregate):
    """Global arithmetic mean, carried as (sum, count)."""

    name = "avg"
    columns = ((np.float64, np.add), (np.int64, np.add))

    def lift(self, value: float) -> tuple[float, int]:
        return (float(value), 1)

    def lift_columns(self, values: np.ndarray) -> list[np.ndarray]:
        return [np.array(values, dtype=np.float64), np.ones(len(values), dtype=np.int64)]

    def finalize(self, state: tuple[float, int]) -> float:
        total, count = state
        return total / count


class StdAggregate(Aggregate):
    """Global population standard deviation via parallel moment merging.

    The state ``(count, mean, M2)`` merges by the numerically stable
    pairwise update of Chan, Golub & LeVeque — exact under reordering up
    to floating-point noise, and 0 on constant readings, where power sums
    (an elementwise, column merge) cancel catastrophically.
    """

    name = "std"

    def lift(self, value: float) -> tuple[int, float, float]:
        return (1, float(value), 0.0)

    def merge(self, left: tuple[Any, ...], right: tuple[Any, ...]) -> tuple[Any, ...]:
        (left_count, left_mean, left_m2), (right_count, right_mean, right_m2) = left, right
        count = left_count + right_count
        delta = right_mean - left_mean
        mean = left_mean + delta * right_count / count
        m2 = left_m2 + right_m2 + delta * delta * left_count * right_count / count
        return (count, mean, m2)

    def finalize(self, state: tuple[int, float, float]) -> float:
        count, _mean, m2 = state
        return math.sqrt(m2 / count)


class HistogramAggregate(ColumnAggregate):
    """Fixed-bin histogram over a known value domain: one ``int64`` count
    column per bin.

    Values outside ``[low, high)`` clamp into the boundary bins — live
    sensors drift slightly past nominal bounds and a dropped reading would
    silently bias COUNT-consistency checks.
    """

    name = "histogram"

    def __init__(self, low: float, high: float, n_bins: int = 10) -> None:
        if not high > low:
            raise ValueError(f"{self.name} domain requires high > low, got [{low}, {high}]")
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.low = float(low)
        self.high = float(high)
        self.n_bins = int(n_bins)
        self.columns = ((np.int64, np.add),) * self.n_bins

    def _bin_index(self, value: float) -> int:
        """Bin index of one value (clamped into range)."""
        if value < self.low:
            return 0
        if value >= self.high:
            return self.n_bins - 1
        fraction = (value - self.low) / (self.high - self.low)
        return min(int(fraction * self.n_bins), self.n_bins - 1)

    def lift(self, value: float) -> tuple[int, ...]:
        counts = [0] * self.n_bins
        counts[self._bin_index(float(value))] = 1
        return tuple(counts)

    def lift_columns(self, values: np.ndarray) -> list[np.ndarray]:
        values = np.asarray(values, dtype=np.float64)
        if np.isnan(values).any():
            raise ValueError("cannot bin a NaN reading")
        # Clipped to the domain, an out-of-range reading lands in its
        # boundary bin (high: fraction 1.0, then the last bin), and an
        # in-range one takes _bin_index's very float operations.
        clipped = np.clip(values, self.low, self.high)
        fraction = (clipped - self.low) / (self.high - self.low)
        index = np.minimum((fraction * self.n_bins).astype(np.int64), self.n_bins - 1)
        return [(index == b).astype(np.int64) for b in range(self.n_bins)]


class QuantileAggregate(HistogramAggregate):
    """Approximate quantile over a known value domain, via a fixed grid.

    The state is a histogram over ``n_bins`` equal-width bins; the quantile
    is read from the cumulative counts with linear interpolation inside the
    containing bin. Error is bounded by one bin width — for monitoring
    dashboards ("the 95th-percentile CPU usage across the Grid") that is
    exactly the fidelity/space trade-off wanted, and unlike exact
    quantiles the state is mergeable, so it flows up a DAT.
    """

    name = "quantile"

    def __init__(self, q: float = 0.5, low: float = 0.0, high: float = 100.0,
                 n_bins: int = 100) -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        super().__init__(low, high, n_bins)
        self.q = float(q)

    def finalize(self, state: tuple[int, ...]) -> float:
        total = sum(state)
        if total == 0:
            raise AggregationError("quantile of an empty population")
        target = self.q * total
        width = (self.high - self.low) / self.n_bins
        cumulative = 0
        for index, count in enumerate(state):
            if cumulative + count >= target and count > 0:
                inside = (target - cumulative) / count
                return self.low + (index + min(max(inside, 0.0), 1.0)) * width
            cumulative += count
        return self.high


class TopKAggregate(Aggregate):
    """The K largest readings network-wide (e.g. most-loaded machines)."""

    name = "topk"

    def __init__(self, k: int = 10) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)

    def lift(self, value: float) -> tuple[float, ...]:
        return (float(value),)

    def merge(self, left: tuple[float, ...], right: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(heapq.nlargest(self.k, left + right))

    def finalize(self, state: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(sorted(state, reverse=True))


_REGISTRY: dict[str, type[Aggregate]] = {
    cls.name: cls
    for cls in (
        SumAggregate,
        CountAggregate,
        MinAggregate,
        MaxAggregate,
        AverageAggregate,
        StdAggregate,
        HistogramAggregate,
        QuantileAggregate,
        TopKAggregate,
    )
}


def get_aggregate(name: str, **kwargs: Any) -> Aggregate:
    """Instantiate a registered aggregate by name.

    >>> get_aggregate("sum").aggregate([1, 2, 3])
    6.0
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownAggregateError(
            f"unknown aggregate {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
