"""Unit tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.chord.idgen import make_assigner
from repro.chord.idspace import IdSpace
from repro.experiments.churn_overhead import run_churn_overhead
from repro.experiments.fig7_tree_properties import measure_tree, run_fig7_tree_properties
from repro.experiments.fig8_load_balance import (
    run_fig8a_message_distribution,
    run_fig8b_imbalance_sweep,
)
from repro.experiments.fig9_accuracy import run_fig9_accuracy
from repro.experiments.maan_routing import run_maan_routing
from repro.experiments.report import format_table
from repro.experiments.scale import measure_protocol_point, measure_scale_point
from tests.oracles import (
    build_balanced_dat,
    build_basic_dat,
    centralized_routed_loads,
    load_distribution,
    protocol_point_oracle,
    scale_point_oracle,
)


class TestFig7:
    def test_measure_tree_returns_triple(self):
        max_b, avg_b, height = measure_tree("balanced", "probing", 32, 16, seed=1)
        assert max_b >= 1 and avg_b >= 1 and height >= 1

    def test_small_sweep_shapes(self):
        points = run_fig7_tree_properties(sizes=[16, 64], n_seeds=2, bits=16)
        assert len(points) == 8  # 4 configs x 2 sizes
        by_config = {
            (p.scheme, p.id_strategy, p.n_nodes): p for p in points
        }
        # Balanced+probing max branching stays small; basic grows with n.
        assert by_config[("balanced", "probing", 64)].max_branching <= 6
        assert (
            by_config[("basic", "random", 64)].max_branching
            > by_config[("balanced", "probing", 64)].max_branching
        )

    def test_rows_renderable(self):
        points = run_fig7_tree_properties(sizes=[16], n_seeds=1, bits=16)
        table = format_table([p.as_row() for p in points])
        assert "max_branching" in table


class TestFig8:
    def test_distribution_anchors(self):
        dist = run_fig8a_message_distribution(n_nodes=128, seed=3)
        summary = dist.summary()
        # The root receives n - 1 value messages; the heaviest relay (its
        # closest-preceding child) can carry up to ~2x that in sends+receives.
        assert summary["centralized_max"] >= 127
        assert summary["balanced_max"] < summary["basic_max"] < summary["centralized_max"]

    def test_same_seed_repeats(self):
        first = run_fig8a_message_distribution(n_nodes=128, seed=1)
        assert run_fig8a_message_distribution(n_nodes=128, seed=1) == first

    def test_distribution_sorted_descending(self):
        dist = run_fig8a_message_distribution(n_nodes=64, seed=4)
        for series in (dist.centralized, dist.basic, dist.balanced):
            assert series == sorted(series, reverse=True)
            assert len(series) == 64

    @pytest.mark.parametrize("n_nodes", [100, 512])
    @pytest.mark.parametrize("id_strategy", ["probing", "random"])
    def test_rank_curves_equal_the_finger_table_oracle(self, n_nodes, id_strategy):
        dist = run_fig8a_message_distribution(n_nodes, seed=5, id_strategy=id_strategy)
        space = IdSpace(32)
        ring = make_assigner(id_strategy).build_ring(space, n_nodes, rng=5)
        key = space.wrap(0xA5A5A5)
        tables = ring.all_finger_tables()
        oracle = {
            "centralized": centralized_routed_loads(ring, key, tables=tables),
            "basic": build_basic_dat(ring, key, tables=tables).message_loads(),
            "balanced": build_balanced_dat(ring, key, tables=tables).message_loads(),
        }
        for scheme, loads in oracle.items():
            curve = [load for _node, load in load_distribution(loads)]
            assert getattr(dist, scheme) == curve, scheme

    def test_imbalance_ordering(self):
        points = run_fig8b_imbalance_sweep(sizes=[100, 300], n_seeds=1)
        for point in points:
            assert point.balanced < point.basic < point.centralized

    def test_imbalance_growth_classes(self):
        points = run_fig8b_imbalance_sweep(sizes=[100, 800], n_seeds=1)
        small, large = points
        # Centralized grows ~linearly (x8 sizes -> much bigger ratio than DATs).
        assert large.centralized / small.centralized > 3.0
        assert large.balanced / small.balanced < 2.0


class TestScale:
    def test_statistics_equal_the_object_oracle(self):
        assert measure_scale_point(1024) == scale_point_oracle(1024)

    def test_protocol_point_equals_the_per_node_service_oracle(self):
        # The oracle reports state_bytes_per_node as 0.0, so compare the
        # fields both paths must agree on.
        assert (
            measure_protocol_point(1024, rounds=8).exactness_key()
            == protocol_point_oracle(1024, rounds=8).exactness_key()
        )


class TestFig9:
    def test_synchronous_is_exact(self):
        result = run_fig9_accuracy(n_nodes=32, n_slots=10, mode="synchronous")
        assert result.max_relative_error() < 1e-9
        assert result.correlation() > 0.999999

    def test_continuous_is_accurate(self):
        result = run_fig9_accuracy(
            n_nodes=64,
            n_slots=60,
            mode="continuous",
            identical_traces=False,
            push_period=1.0,
        )
        assert result.mean_relative_error() < 0.05
        assert len(result.actual) == len(result.aggregated) == 60

    def test_avg_aggregate(self):
        result = run_fig9_accuracy(
            n_nodes=32, n_slots=5, mode="synchronous", aggregate="avg"
        )
        assert all(0 <= v <= 100 for v in result.aggregated)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_fig9_accuracy(mode="psychic")


class TestMaanRouting:
    def test_structure(self):
        result = run_maan_routing(
            n_nodes=64, n_resources=64, queries_per_point=3,
            selectivities=[0.05, 0.2],
        )
        assert result.registration_hops_per_attribute() <= 12  # ~log2(64)
        assert set(result.range_costs) == {0.05, 0.2}
        # Wider ranges visit more nodes.
        assert result.range_costs[0.2][1] > result.range_costs[0.05][1]
        # Multi-attribute cost follows the dominant (min) selectivity.
        assert result.multi_costs[0.05] < result.multi_costs[0.2]


class TestChurnOverhead:
    def test_runs_and_reports(self):
        result = run_churn_overhead(n_nodes=12, n_churn_events=3, bits=12, seed=5)
        assert result.n_events >= 1
        assert result.total_messages > 0
        assert result.dat_maintenance_messages() == 0
        assert result.mean_repair_rounds() < 30
        # Only Chord protocol kinds appear.
        for kind in result.by_kind:
            assert not kind.startswith("agg_")
