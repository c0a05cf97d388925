"""Unit tests for the extreme-dynamics experiment (small, fast configs)."""

from repro.experiments.dynamics import DynamicsPoint, run_dynamics


class TestDynamicsPoint:
    def test_row_shape(self):
        point = DynamicsPoint(
            churn_rate=0.5,
            n_samples=10,
            mean_relative_error=0.1234,
            max_relative_error=0.5,
            availability=0.9,
        )
        row = point.as_row()
        assert row["churn_per_s"] == 0.5
        assert row["mean_rel_err"] == 0.1234


class TestRunDynamics:
    def test_stable_overlay_is_exact(self):
        result = run_dynamics(
            churn_rates=[0.0], n_nodes=8, duration=10.0, seed=3
        )
        point = result.points[0]
        assert point.mean_relative_error == 0.0
        assert point.availability == 1.0
        assert point.n_samples > 0

    def test_churn_degrades_but_keeps_sampling(self):
        result = run_dynamics(
            churn_rates=[0.0, 0.5], n_nodes=8, duration=15.0, seed=4
        )
        stable, churny = result.points
        assert churny.mean_relative_error >= stable.mean_relative_error
        assert churny.n_samples >= 20  # the root kept answering

    def test_deterministic_under_seed(self):
        a = run_dynamics(churn_rates=[0.3], n_nodes=8, duration=10.0, seed=7)
        b = run_dynamics(churn_rates=[0.3], n_nodes=8, duration=10.0, seed=7)
        assert a.points[0].as_row() == b.points[0].as_row()
