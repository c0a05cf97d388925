"""Unit tests for redundant multi-replica aggregation."""

import pytest

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.redundant import RedundantAggregator
from repro.errors import AggregationError


@pytest.fixture
def setup():
    ring = ProbingIdAssigner().build_ring(IdSpace(32), 64, rng=17)
    values = {node: float(i + 1) for i, node in enumerate(ring)}
    aggregator = RedundantAggregator(ring, "cpu-usage", k=3)
    return ring, values, aggregator


class TestConstruction:
    def test_k_distinct_keys(self, setup):
        _ring, _values, aggregator = setup
        keys = {tree.key for tree in aggregator.trees()}
        assert len(keys) == 3

    def test_roots_spread(self, setup):
        _ring, _values, aggregator = setup
        assert aggregator.distinct_roots() >= 2

    def test_rejects_bad_k(self, setup):
        ring, _values, _aggregator = setup
        with pytest.raises(AggregationError):
            RedundantAggregator(ring, "x", k=0)


class TestFailureFreeAggregation:
    def test_all_replicas_agree(self, setup):
        _ring, values, aggregator = setup
        result = aggregator.aggregate(values, "sum")
        truth = sum(values.values())
        assert result.value == pytest.approx(truth)
        assert result.replicas_used == 3
        assert all(o.value == pytest.approx(truth) for o in result.outcomes)

    def test_avg(self, setup):
        _ring, values, aggregator = setup
        result = aggregator.aggregate(values, "avg")
        assert result.value == pytest.approx(sum(values.values()) / len(values))


class TestFailureMasking:
    def test_root_failure_masked(self, setup):
        _ring, values, aggregator = setup
        trees = aggregator.trees()
        victim_root = trees[0].root
        other_roots = {t.root for t in trees[1:]}
        if victim_root in other_roots:
            pytest.skip("replica roots collided on this seed")
        result = aggregator.aggregate(values, "sum", failed_nodes={victim_root})
        assert not result.outcomes[0].ok
        assert result.replicas_used >= 2

        # Each surviving replica loses exactly the victim's subtree in
        # *its* tree (the victim relays those contributions there too).
        def descendants(tree, node):
            out, stack = set(), [node]
            while stack:
                current = stack.pop()
                out.add(current)
                stack.extend(tree.children(current))
            return out

        expected = []
        for tree, outcome in zip(trees[1:], result.outcomes[1:]):
            lost = descendants(tree, victim_root)
            expected.append(sum(v for n, v in values.items() if n not in lost))
        for outcome, expectation in zip(result.outcomes[1:], expected):
            assert outcome.value == pytest.approx(expectation)

        import statistics

        assert result.value == pytest.approx(statistics.median(expected))

    def test_interior_failure_corrupts_minority(self, setup):
        # Failing one interior node of replica 0 loses a subtree there but
        # (whp) not in the other replicas; the median masks it.
        _ring, values, aggregator = setup
        trees = aggregator.trees()
        interiors = [
            node for node in trees[0].internal_nodes() if node != trees[0].root
        ]
        victim = max(interiors, key=trees[0].subtree_sizes().__getitem__)
        result = aggregator.aggregate(values, "sum", failed_nodes={victim})
        truth_without_victim = sum(values.values()) - values[victim]
        # Median over 3 replicas: at most one is heavily corrupted, so the
        # combined value is within the least-corrupted replica's error.
        errors = sorted(
            abs(o.value - truth_without_victim)
            for o in result.outcomes
            if o.ok
        )
        assert abs(result.value - truth_without_victim) <= errors[-2] + 1e-9

    def test_all_roots_failed_raises(self, setup):
        _ring, values, aggregator = setup
        roots = {tree.root for tree in aggregator.trees()}
        with pytest.raises(AggregationError):
            aggregator.aggregate(values, "sum", failed_nodes=roots)

    def test_failed_replica_reported(self, setup):
        _ring, values, aggregator = setup
        victim = aggregator.trees()[1].root
        result = aggregator.aggregate(values, "sum", failed_nodes={victim})
        failed = [o for o in result.outcomes if not o.ok]
        assert any(o.failure == "root failed" for o in failed)
