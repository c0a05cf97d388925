"""Unit tests for mergeable aggregate functions."""

import math

import numpy as np
import pytest

from repro.core.aggregates import (
    AverageAggregate,
    ColumnAggregate,
    CountAggregate,
    HistogramAggregate,
    MaxAggregate,
    MinAggregate,
    StdAggregate,
    SumAggregate,
    TopKAggregate,
    get_aggregate,
)
from repro.errors import AggregationError, UnknownAggregateError

VALUES = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


class TestSum:
    def test_aggregate(self):
        assert SumAggregate().aggregate(VALUES) == sum(VALUES)

    def test_single_value(self):
        assert SumAggregate().aggregate([7.5]) == 7.5


class TestCount:
    def test_counts_readings(self):
        assert CountAggregate().aggregate(VALUES) == len(VALUES)

    def test_values_irrelevant(self):
        assert CountAggregate().aggregate([0.0, 0.0]) == 2


class TestMinMax:
    def test_min(self):
        assert MinAggregate().aggregate(VALUES) == 1.0

    def test_max(self):
        assert MaxAggregate().aggregate(VALUES) == 9.0


class TestScalarMerge:
    """A number's merge is its column ufunc on two scalars, NaN and signed
    zeros included: the object path and the slab fold the same way."""

    SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1.5, -2.0]

    @pytest.mark.parametrize("aggregate", [MinAggregate(), MaxAggregate(), SumAggregate()])
    def test_scalar_merge_equals_the_ufunc(self, aggregate):
        ufunc = aggregate.columns[0][1]
        for left in self.SPECIAL:
            for right in self.SPECIAL:
                got = aggregate.merge(left, right)
                with np.errstate(invalid="ignore"):  # inf + -inf
                    want = float(ufunc(left, right))
                assert (math.isnan(got) and math.isnan(want)) or (
                    got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
                ), (left, right, got, want)

    def test_nan_wins_in_any_fold_order(self):
        for aggregate in (MinAggregate(), MaxAggregate()):
            assert math.isnan(aggregate.merge_all([1.0, math.nan, 3.0]))
            assert math.isnan(aggregate.merge_all([math.nan, 1.0, 3.0]))


class TestAverage:
    def test_aggregate(self):
        assert AverageAggregate().aggregate(VALUES) == pytest.approx(
            sum(VALUES) / len(VALUES)
        )

    def test_merge_keeps_exact_counts(self):
        agg = AverageAggregate()
        left = agg.merge_all([agg.lift(v) for v in VALUES[:3]])
        right = agg.merge_all([agg.lift(v) for v in VALUES[3:]])
        merged = agg.merge(left, right)
        assert merged[1] == len(VALUES)


class TestStd:
    def test_matches_numpy(self):
        import numpy as np

        assert StdAggregate().aggregate(VALUES) == pytest.approx(np.std(VALUES))

    def test_constant_series_is_zero(self):
        assert StdAggregate().aggregate([4.0] * 10) == pytest.approx(0.0)

    def test_merge_order_invariant(self):
        agg = StdAggregate()
        states = [agg.lift(v) for v in VALUES]
        forward = agg.merge_all(states)
        backward = agg.merge_all(reversed(states))
        assert agg.finalize(forward) == pytest.approx(agg.finalize(backward))


class TestHistogram:
    def test_bin_assignment(self):
        hist = HistogramAggregate(low=0, high=100, n_bins=10)
        assert [hist.lift(v).index(1) for v in (0, 9.99, 10, 99.9)] == [0, 0, 1, 9]

    def test_out_of_range_clamps(self):
        hist = HistogramAggregate(low=0, high=100, n_bins=10)
        assert [hist.lift(v).index(1) for v in (-5, 150)] == [0, 9]

    def test_aggregate_counts_sum_to_n(self):
        hist = HistogramAggregate(low=0, high=10, n_bins=5)
        counts = hist.aggregate(VALUES)
        assert sum(counts) == len(VALUES)

    def test_merge_width_mismatch(self):
        hist = HistogramAggregate(low=0, high=10, n_bins=5)
        with pytest.raises(AggregationError):
            hist.merge((1, 2), (1, 2, 3))

    def test_nan_reading_has_no_bin_on_either_lift(self):
        hist = HistogramAggregate(low=0, high=10, n_bins=5)
        with pytest.raises(ValueError):
            hist.lift(math.nan)
        with pytest.raises(ValueError):
            hist.lift_columns([1.0, math.nan])

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            HistogramAggregate(low=5, high=5)
        with pytest.raises(ValueError):
            HistogramAggregate(low=0, high=1, n_bins=0)


class TestQuantile:
    def test_median_of_uniform_grid(self):
        from repro.core.aggregates import QuantileAggregate

        agg = QuantileAggregate(q=0.5, low=0, high=100, n_bins=100)
        values = list(range(0, 100))
        assert agg.aggregate(values) == pytest.approx(50.0, abs=2.0)

    def test_p95(self):
        from repro.core.aggregates import QuantileAggregate

        agg = QuantileAggregate(q=0.95, low=0, high=100, n_bins=200)
        values = list(range(0, 100))
        assert agg.aggregate(values) == pytest.approx(95.0, abs=2.0)

    def test_extremes(self):
        from repro.core.aggregates import QuantileAggregate

        values = [10.0, 20.0, 30.0]
        low = QuantileAggregate(q=0.0, low=0, high=100).aggregate(values)
        high = QuantileAggregate(q=1.0, low=0, high=100).aggregate(values)
        assert low <= 11.0
        assert high >= 29.0

    def test_error_bounded_by_bin_width(self):
        from repro.core.aggregates import QuantileAggregate
        import numpy as np

        rng = np.random.default_rng(5)
        values = rng.uniform(0, 100, size=500)
        agg = QuantileAggregate(q=0.5, low=0, high=100, n_bins=100)
        exact = float(np.quantile(values, 0.5))
        assert abs(agg.aggregate(values) - exact) <= 2.0  # ~2 bin widths

    def test_empty_population_rejected(self):
        from repro.core.aggregates import QuantileAggregate
        from repro.errors import AggregationError

        agg = QuantileAggregate()
        with pytest.raises(AggregationError):
            agg.finalize(tuple([0] * agg.n_bins))

    def test_validation(self):
        from repro.core.aggregates import QuantileAggregate

        with pytest.raises(ValueError):
            QuantileAggregate(q=1.5)
        with pytest.raises(ValueError):
            QuantileAggregate(low=5, high=5)
        with pytest.raises(ValueError):
            QuantileAggregate(n_bins=0)

    def test_registered(self):
        agg = get_aggregate("quantile", q=0.9, low=0, high=10)
        assert agg.q == 0.9


class TestTopK:
    def test_keeps_k_largest(self):
        top = TopKAggregate(k=3)
        assert top.aggregate(VALUES) == (9.0, 6.0, 5.0)

    def test_fewer_than_k(self):
        assert TopKAggregate(k=10).aggregate([2.0, 1.0]) == (2.0, 1.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKAggregate(k=0)


class TestDerivedMerge:
    """A column aggregate's ``merge`` comes from its columns' ufuncs unless
    the class defines its own."""

    def test_mixed_ufuncs_merge_column_by_column(self):
        class Span(ColumnAggregate):
            name = "span"
            columns = ((np.float64, np.minimum), (np.float64, np.maximum), (np.int64, np.add))

            def lift(self, value):
                return (float(value), float(value), 1)

            def lift_columns(self, values):
                return [np.array(values, dtype=np.float64)] * 2 + [np.ones(len(values), np.int64)]

        assert Span().merge((1.0, 2.0, 1), (0.5, 1.5, 2)) == (0.5, 2.0, 3)
        with pytest.raises(AggregationError):
            Span().merge((1.0, 2.0, 1), (0.5, 1.5))

    def test_own_merge_is_kept(self):
        class Clipped(SumAggregate):
            def merge(self, left, right):
                return min(left + right, 10.0)

        assert Clipped().merge(7.0, 8.0) == 10.0


class TestMergeAll:
    def test_empty_raises(self):
        with pytest.raises(AggregationError):
            SumAggregate().merge_all([])

    def test_single_state_passthrough(self):
        agg = SumAggregate()
        assert agg.merge_all([agg.lift(5.0)]) == 5.0


class TestRegistry:
    def test_builtins_available(self):
        for expected in ("sum", "count", "min", "max", "avg", "std", "topk"):
            assert get_aggregate(expected).name == expected
        assert get_aggregate("histogram", low=0, high=1).name == "histogram"

    def test_get_with_kwargs(self):
        top = get_aggregate("topk", k=2)
        assert top.k == 2

    def test_unknown_raises(self):
        with pytest.raises(UnknownAggregateError):
            get_aggregate("median")
