"""Unit tests for Fig9Result metrics (independent of the simulation)."""

import pytest

from repro.experiments.fig9_accuracy import Fig9Result


def make(actual, aggregated) -> Fig9Result:
    result = Fig9Result(n_nodes=4, mode="continuous")
    result.times = [float(i) for i in range(len(actual))]
    result.actual = list(actual)
    result.aggregated = list(aggregated)
    return result


class TestErrorMetrics:
    def test_exact_series(self):
        result = make([10.0, 20.0], [10.0, 20.0])
        assert result.max_relative_error() == 0.0
        assert result.mean_relative_error() == 0.0

    def test_known_errors(self):
        result = make([100.0, 200.0], [110.0, 190.0])
        assert result.max_relative_error() == pytest.approx(0.10)
        assert result.mean_relative_error() == pytest.approx(0.075)

    def test_zero_actual_guard(self):
        # A zero ground-truth slot must not divide by zero.
        result = make([0.0, 100.0], [1.0, 100.0])
        assert result.max_relative_error() == pytest.approx(1.0)

    def test_correlation_perfect(self):
        result = make([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert result.correlation() == pytest.approx(1.0)

    def test_correlation_inverse(self):
        result = make([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert result.correlation() == pytest.approx(-1.0)

    def test_errors_array(self):
        result = make([10.0, 20.0], [12.0, 18.0])
        assert list(result.errors()) == [2.0, 2.0]
