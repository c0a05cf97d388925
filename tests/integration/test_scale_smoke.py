"""Scale smoke test: the paper's headline 8192-node configuration.

One pass over everything the big experiments exercise — ring build with
probing ids, vectorized + scalar construction, both schemes, an
aggregation round, and the load metrics — at full 8192-node scale, kept
under a few seconds by sharing the ring across checks.
"""

import pytest

from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.aggregates import get_aggregate
from repro.core.analysis import imbalance_factor
from repro.core.builder import build_balanced_dat, build_basic_dat, build_dat
from repro.util.bits import ceil_log2


@pytest.fixture(scope="module")
def big_ring():
    return ProbingIdAssigner().build_ring(IdSpace(32), 8192, rng=2007)


@pytest.fixture(scope="module")
def big_tables(big_ring):
    return big_ring.all_finger_tables()


class TestHeadlineScale:
    def test_ring_quality(self, big_ring):
        assert len(big_ring) == 8192
        assert big_ring.gap_ratio() <= 8.0  # probing keeps ids balanced

    def test_balanced_tree_properties(self, big_ring, big_tables):
        tree = build_balanced_dat(big_ring, 0xBEEF, tables=big_tables)
        tree.validate()
        stats = tree.stats()
        assert stats.max_branching <= 8          # ~constant (paper: ~4)
        assert stats.height <= 2 * ceil_log2(8192)
        assert 1.5 <= stats.avg_branching <= 2.6

    def test_basic_tree_properties(self, big_ring, big_tables):
        tree = build_basic_dat(big_ring, 0xBEEF, tables=big_tables)
        tree.validate()
        stats = tree.stats()
        assert stats.max_branching <= 2 * ceil_log2(8192)  # log-scale
        assert stats.height <= 2 * ceil_log2(8192)

    def test_fast_path_agrees_at_scale(self, big_ring):
        fast = build_dat(big_ring, 0xBEEF, scheme="balanced")
        slow = build_balanced_dat(big_ring, 0xBEEF)
        assert fast.parent == slow.parent

    def test_aggregation_round_at_scale(self, big_ring, big_tables):
        tree = build_balanced_dat(big_ring, 0xBEEF, tables=big_tables)
        agg = get_aggregate("avg")
        depths = tree.depths()
        states = {node: agg.lift(float(node % 100)) for node in tree.nodes()}
        for node in sorted(tree.parent, key=lambda v: depths[v], reverse=True):
            parent = tree.parent[node]
            states[parent] = agg.merge(states[parent], states[node])
        value = agg.finalize(states[tree.root])
        truth = sum(node % 100 for node in big_ring) / 8192
        assert value == pytest.approx(truth)

    def test_load_balance_at_scale(self, big_ring, big_tables):
        tree = build_balanced_dat(big_ring, 0xBEEF, tables=big_tables)
        assert imbalance_factor(tree.message_loads()) <= 4.5
