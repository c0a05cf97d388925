"""Unit tests for the sensor layer."""

import numpy as np
import pytest

from repro.gma.sensors import (
    CallbackSensor,
    ConstantSensor,
    RandomWalkSensor,
    TraceSensor,
)
from repro.gma.traces import CpuTrace


class TestConstantSensor:
    def test_fixed_reading(self):
        sensor = ConstantSensor("host", "cpu-speed", 2.8)
        assert sensor.read(0) == 2.8
        assert sensor.read(1000) == 2.8


class TestCallbackSensor:
    def test_delegates(self):
        sensor = CallbackSensor("host", "load", lambda t: t * 2)
        assert sensor.read(3.0) == 6.0


class TestRandomWalkSensor:
    def test_bounded(self):
        sensor = RandomWalkSensor("host", "cpu-usage", low=0, high=100, seed=1)
        for t in range(200):
            assert 0 <= sensor.read(float(t)) <= 100

    def test_same_time_is_stable(self):
        sensor = RandomWalkSensor("host", "cpu-usage", seed=2)
        first = sensor.read(5.0)
        assert sensor.read(5.0) == first

    def test_advances_with_time(self):
        sensor = RandomWalkSensor("host", "cpu-usage", seed=3, step_scale=10.0)
        readings = {sensor.read(float(t)) for t in range(50)}
        assert len(readings) > 10

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RandomWalkSensor("host", "x", low=10, high=10)


class TestTraceSensor:
    def test_replays_trace(self):
        trace = CpuTrace(values=np.array([1.0, 2.0, 3.0]), period=10.0)
        sensor = TraceSensor("host", "cpu-usage", trace)
        assert sensor.read(0.0) == 1.0
        assert sensor.read(15.0) == 2.0
        assert sensor.read_slot(2) == 3.0
