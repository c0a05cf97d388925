"""Construction-cost scaling: the engineering side of 'scales to 8192 nodes'.

Measures wall-clock cost of ring construction, finger-table materialization,
and per-tree parent computation across sizes, and the marginal cost of
additional trees on a shared overlay (the multi-attribute scenario).
"""

import pytest

from repro.chord.hashing import sha1_id
from repro.chord.idgen import ProbingIdAssigner
from repro.chord.idspace import IdSpace
from repro.core.builder import DatTreeBuilder

SPACE = IdSpace(32)


@pytest.fixture(scope="module")
def big_ring():
    return ProbingIdAssigner().build_ring(SPACE, 8192, rng=2007)


@pytest.mark.parametrize("n_nodes", [512, 2048, 8192])
def test_ring_and_tables_scaling(benchmark, n_nodes):
    def build():
        ring = ProbingIdAssigner().build_ring(SPACE, n_nodes, rng=7)
        ring.all_finger_tables()
        return ring

    ring = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(ring) == n_nodes


def test_single_tree_on_8192(benchmark, big_ring):
    builder = DatTreeBuilder(big_ring, scheme="balanced")
    tree = benchmark(lambda: builder.build(key=12345))
    assert tree.n_nodes == 8192


def test_sixteen_trees_share_tables(benchmark, big_ring):
    # Multi-attribute monitoring: 16 DATs on one overlay share the ring;
    # the marginal cost per tree is one kernel build.
    builder = DatTreeBuilder(big_ring, scheme="balanced")
    keys = [sha1_id(f"attr-{i}", SPACE) for i in range(16)]

    trees = benchmark.pedantic(lambda: builder.build_many(keys), rounds=1, iterations=1)
    assert len(trees) == 16
    roots = {tree.root for tree in trees.values()}
    assert len(roots) >= 14  # consistent hashing spreads the roots
