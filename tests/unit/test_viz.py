"""Unit tests for text visualization."""

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.tree import DatTree
from repro.viz import render_load_histogram, render_ring, render_tree
from tests.oracles import build_balanced_dat


class TestRenderTree:
    def test_paper_tree_contains_all_nodes(self, full_ring4):
        tree = build_balanced_dat(full_ring4, key=0)
        text = render_tree(tree)
        for node in range(16):
            assert f"N{node}" in text

    def test_root_on_first_line(self):
        tree = DatTree(root=7, parent={3: 7, 5: 7})
        assert render_tree(tree).splitlines()[0] == "N7"

    def test_truncation(self):
        tree = DatTree(root=0, parent={i: 0 for i in range(1, 50)})
        text = render_tree(tree, max_nodes=5)
        assert "truncated" in text

    def test_custom_label(self):
        tree = DatTree(root=1, parent={2: 1})
        assert "node1" in render_tree(tree, label="node")

    def test_structure_markers(self):
        tree = DatTree(root=0, parent={1: 0, 2: 0, 3: 1})
        text = render_tree(tree)
        assert "├── N1" in text
        assert "└── N2" in text
        assert "│   └── N3" in text


class TestRenderRing:
    def test_width_and_brackets(self, full_ring4):
        text = render_ring(full_ring4, width=16)
        assert text.startswith("[") and text.endswith("]")
        assert len(text) == 18

    def test_full_ring_all_occupied(self, full_ring4):
        assert "." not in render_ring(full_ring4, width=16)

    def test_empty_buckets_shown(self):
        ring = StaticRing(IdSpace(8), [0, 128])
        text = render_ring(ring, width=8)
        assert text.count("o") == 2
        assert "." in text

    def test_mark(self):
        ring = StaticRing(IdSpace(8), [0, 128])
        assert "@" in render_ring(ring, width=8, mark=128)

    def test_collision_bucket(self):
        ring = StaticRing(IdSpace(8), [0, 1, 2])
        assert "#" in render_ring(ring, width=8)

    def test_rejects_bad_width(self, full_ring4):
        with pytest.raises(ValueError):
            render_ring(full_ring4, width=0)


class TestRenderLoadHistogram:
    def test_sorted_descending(self):
        text = render_load_histogram({1: 5, 2: 20, 3: 1})
        lines = text.splitlines()
        assert "node            2" in lines[0]
        assert lines[0].count("#") > lines[1].count("#")

    def test_folding(self):
        loads = {i: 100 - i for i in range(40)}
        text = render_load_histogram(loads, max_rows=5)
        assert "35 more nodes" in text

    def test_empty(self):
        assert render_load_histogram({}) == "(no loads)"

    def test_zero_loads_render(self):
        text = render_load_histogram({1: 0, 2: 0})
        assert "rank" in text
