"""Unit tests for named deployment scenarios."""

import pytest

from repro.workloads.scenarios import available_scenarios, scenario


class TestRegistry:
    def test_known_names(self):
        assert set(available_scenarios()) == {"cluster", "planetlab", "grid", "seti"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("cloud")

    def test_paper_scales(self):
        assert scenario("cluster").monitor.n_nodes == 512
        assert scenario("planetlab").monitor.n_nodes == 706
        assert scenario("grid").monitor.n_nodes == 8192


class TestDerivedWorkloads:
    def test_trace_generator_uses_noise(self):
        gen = scenario("seti").trace_generator(seed=1)
        assert gen.noise_scale == 12.0

    def test_churn_workload_scales_with_size(self):
        small = scenario("cluster").churn_workload(3600.0, seed=1)
        big = scenario("seti").churn_workload(3600.0, seed=1)
        assert big.expected_events() > 50 * small.expected_events()

    def test_churn_rate_math(self):
        # planetlab: 2 events/hour/100 nodes * 7.06 = ~14.1 events/hour.
        workload = scenario("planetlab").churn_workload(3600.0, seed=2)
        assert workload.expected_events() == pytest.approx(14.12, rel=0.01)

    def test_seti_is_crash_heavy(self):
        workload = scenario("seti").churn_workload(100.0, seed=3)
        assert workload.crash_fraction == 0.5

    def test_scenario_is_frozen(self):
        s = scenario("grid")
        with pytest.raises(AttributeError):
            s.name = "other"  # type: ignore[misc]
