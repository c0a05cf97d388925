"""Property-based tests: aggregate merging must be order-insensitive.

DAT correctness (Sec. 2.3) rests on ``f`` being computable by recursive
merging in *any* tree shape — so merge must be associative and commutative,
and tree-merged results must equal flat aggregation.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import ColumnAggregate, get_aggregate

VALUES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)

#: Every built-in aggregate, by name.
NAMES = ["avg", "count", "histogram", "max", "min", "quantile", "std", "sum", "topk"]


def make(name: str):
    if name == "histogram":
        return get_aggregate(name, low=-1e6, high=1e6, n_bins=8)
    if name == "quantile":
        return get_aggregate(name, q=0.5, low=-1e6, high=1e6, n_bins=32)
    if name == "topk":
        return get_aggregate(name, k=5)
    return get_aggregate(name)


def approx_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(approx_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-6)
    return a == b


@pytest.mark.parametrize("name", NAMES)
class TestMergeLaws:
    @settings(max_examples=30)
    @given(values=VALUES)
    def test_commutative(self, name, values):
        agg = make(name)
        forward = agg.finalize(agg.merge_all([agg.lift(v) for v in values]))
        backward = agg.finalize(agg.merge_all([agg.lift(v) for v in reversed(values)]))
        assert approx_equal(forward, backward)

    @settings(max_examples=30)
    @given(values=VALUES, data=st.data())
    def test_associative_random_split(self, name, values, data):
        # Merge (left-block, right-block) equals flat merge.
        agg = make(name)
        split = data.draw(st.integers(min_value=0, max_value=len(values)))
        flat = agg.merge_all([agg.lift(v) for v in values])
        if 0 < split < len(values):
            left = agg.merge_all([agg.lift(v) for v in values[:split]])
            right = agg.merge_all([agg.lift(v) for v in values[split:]])
            blocked = agg.merge(left, right)
            assert approx_equal(agg.finalize(flat), agg.finalize(blocked))

    @settings(max_examples=20)
    @given(values=VALUES, data=st.data())
    def test_tree_merge_matches_flat(self, name, values, data):
        # Simulate an arbitrary binary merge tree via random pairwise folds.
        agg = make(name)
        states = [agg.lift(v) for v in values]
        flat = agg.finalize(agg.merge_all(states))
        pool = list(states)
        while len(pool) > 1:
            i = data.draw(st.integers(min_value=0, max_value=len(pool) - 2))
            merged = agg.merge(pool[i], pool[i + 1])
            pool[i : i + 2] = [merged]
        assert approx_equal(flat, agg.finalize(pool[0]))


class TestSemanticAnchors:
    @settings(max_examples=30)
    @given(values=VALUES)
    def test_sum_and_count_and_avg_consistent(self, values):
        total = get_aggregate("sum").aggregate(values)
        count = get_aggregate("count").aggregate(values)
        average = get_aggregate("avg").aggregate(values)
        assert count == len(values)
        assert math.isclose(average, total / count, rel_tol=1e-9, abs_tol=1e-6)

    @settings(max_examples=30)
    @given(values=VALUES)
    def test_min_max_bound_everything(self, values):
        lo = get_aggregate("min").aggregate(values)
        hi = get_aggregate("max").aggregate(values)
        assert lo <= hi
        assert all(lo <= v <= hi for v in values)

    @settings(max_examples=30)
    @given(values=VALUES)
    def test_histogram_mass_conservation(self, values):
        hist = get_aggregate("histogram", low=-1e6, high=1e6, n_bins=7)
        counts = hist.aggregate(values)
        assert sum(counts) == len(values)

    @settings(max_examples=30)
    @given(values=VALUES)
    def test_topk_is_sorted_prefix(self, values):
        top = get_aggregate("topk", k=4).aggregate(values)
        expected = tuple(sorted(values, reverse=True)[:4])
        assert top == expected

    @settings(max_examples=30)
    @given(values=VALUES)
    def test_std_nonnegative_and_zero_iff_constant(self, values):
        std = get_aggregate("std").aggregate(values)
        assert std >= 0
        if len(set(values)) == 1:
            assert std == pytest.approx(0.0, abs=1e-9)


def _bits(state):
    """A state's shape and numbers with their types, floats as IEEE bits
    (so -0.0 differs from 0.0, and 1 from ``(1,)``)."""
    numbers = state if isinstance(state, tuple) else (state,)
    return type(state), [
        (type(x), struct.pack("<d", x) if type(x) is float else x) for x in numbers
    ]


def _special_readings(agg):
    """Signed zeros, infinities and, for a binned state, every bin edge, its
    float neighbours and readings past either end of the domain."""
    special = [0.0, -0.0, math.inf, -math.inf]
    if hasattr(agg, "low"):
        width = (agg.high - agg.low) / agg.n_bins
        for edge in (agg.low + i * width for i in range(agg.n_bins + 1)):
            special += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        special += [agg.low - 1.0, agg.high + 1.0, -agg.high]
    return special


#: Every column aggregate by name, and the one-bin histogram and quantile,
#: whose one-column state is still the tuple their ``lift`` makes.
COLUMN_AGGREGATES = {
    **{
        name: make(name)
        for name in NAMES
        if isinstance(make(name), ColumnAggregate)
    },
    "histogram_one_bin": get_aggregate("histogram", low=-10.0, high=10.0, n_bins=1),
    "quantile_one_bin": get_aggregate("quantile", q=0.9, low=-10.0, high=10.0, n_bins=1),
}


@pytest.mark.parametrize("name", COLUMN_AGGREGATES)
class TestLiftColumns:
    """``lift_columns`` is ``lift`` over a vector: row ``i`` of the columns
    is ``lift(values[i])`` bit for bit, in the declared dtypes."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_rows_equal_scalar_lift(self, name, data):
        agg = COLUMN_AGGREGATES[name]
        readings = st.one_of(
            st.floats(allow_nan=False), st.sampled_from(_special_readings(agg))
        )
        values = data.draw(st.lists(readings, min_size=1, max_size=40))
        array = np.array(values, dtype=np.float64)
        columns = agg.lift_columns(array)
        dtypes = [np.dtype(dtype) for dtype, _ufunc in agg.columns]
        assert [column.dtype for column in columns] == dtypes
        assert not any(np.shares_memory(column, array) for column in columns)
        for i, value in enumerate(values):
            assert _bits(agg.row(columns, i)) == _bits(agg.lift(value)), value
        if not agg.lift_reads_value:
            assert len({repr(_bits(agg.lift(value))) for value in values}) == 1

    def test_merge_is_the_columns_ufuncs(self, name):
        agg = COLUMN_AGGREGATES[name]
        left = agg.lift_columns(np.array([3.5, -2.0]))
        right = agg.lift_columns(np.array([1.0, 7.25]))
        merged = [ufunc(a, b) for (_dtype, ufunc), a, b in zip(agg.columns, left, right)]
        for i in range(2):
            scalar = agg.merge(agg.row(left, i), agg.row(right, i))
            assert _bits(scalar) == _bits(agg.row(merged, i))
