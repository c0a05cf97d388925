"""Unit tests for latency models."""

import pytest

from repro.sim.latency import ConstantLatency, LanWanLatency


class TestConstantLatency:
    def test_fixed(self):
        model = ConstantLatency(0.005)
        assert model.sample(1, 2) == 0.005
        assert model.sample(9, 9) == 0.005

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)


class TestLanWanLatency:
    def test_same_site_is_lan(self):
        model = LanWanLatency(n_sites=4, lan_delay=0.001, wan_delay=0.1, jitter=0.0)
        assert model.sample(0, 4) == 0.001  # 0 % 4 == 4 % 4

    def test_cross_site_is_wan(self):
        model = LanWanLatency(n_sites=4, lan_delay=0.001, wan_delay=0.1, jitter=0.0)
        assert model.sample(0, 1) == 0.1

    def test_jitter_bounded(self):
        model = LanWanLatency(n_sites=4, wan_delay=0.1, jitter=0.2, rng=1)
        for _ in range(100):
            delay = model.sample(0, 1)
            assert 0.08 <= delay <= 0.12

    def test_site_assignment_deterministic(self):
        model = LanWanLatency(n_sites=8)
        assert model.site_of(13) == 5

    def test_rejects_bad_sites(self):
        with pytest.raises(ValueError):
            LanWanLatency(n_sites=0)
