"""Unit tests for identifier assignment strategies."""

import hashlib

import numpy as np
import pytest

from repro.chord.idgen import (
    ProbingIdAssigner,
    RandomIdAssigner,
    UniformIdAssigner,
    make_assigner,
)
from repro.chord.idspace import IdSpace
from repro.errors import IdentifierError


class TestRandomIdAssigner:
    def test_count_and_distinct(self):
        ring = RandomIdAssigner().build_ring(IdSpace(32), 100, rng=1)
        assert len(ring) == 100

    def test_deterministic_under_seed(self):
        a = RandomIdAssigner().build_ring(IdSpace(32), 50, rng=9)
        b = RandomIdAssigner().build_ring(IdSpace(32), 50, rng=9)
        assert a.nodes == b.nodes

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            RandomIdAssigner().build_ring(IdSpace(2), 5, rng=0)

    def test_zero_nodes(self):
        assert len(RandomIdAssigner().build_ring(IdSpace(8), 0, rng=0)) == 0

    def test_gap_ratio_grows(self):
        # Random ids: expect a visibly imbalanced ring (ratio >> constant).
        ring = RandomIdAssigner().build_ring(IdSpace(32), 512, rng=3)
        assert ring.gap_ratio() > 8.0


class TestUniformIdAssigner:
    def test_power_of_two_exact_spacing(self):
        space = IdSpace(8)
        ring = UniformIdAssigner().build_ring(space, 16)
        gaps = set(ring.gaps().values())
        assert gaps == {16}

    def test_offset_applied(self):
        space = IdSpace(8)
        ring = UniformIdAssigner(offset=3).build_ring(space, 4)
        assert ring.nodes == [3, 67, 131, 195]

    def test_non_power_of_two_nearly_even(self):
        space = IdSpace(16)
        ring = UniformIdAssigner().build_ring(space, 100)
        assert ring.gap_ratio() <= 2.0


class TestProbingIdAssigner:
    def test_count(self):
        ring = ProbingIdAssigner().build_ring(IdSpace(32), 64, rng=2)
        assert len(ring) == 64

    def test_constant_gap_ratio(self):
        ring = ProbingIdAssigner().build_ring(IdSpace(32), 256, rng=2)
        assert ring.gap_ratio() <= 8.0

    def test_better_than_random(self):
        space = IdSpace(32)
        probing = ProbingIdAssigner().build_ring(space, 256, rng=5)
        random_ring = RandomIdAssigner().build_ring(space, 256, rng=5)
        assert probing.gap_ratio() < random_ring.gap_ratio()

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            ProbingIdAssigner(probe_multiplier=0)


class TestMakeAssigner:
    def test_resolves_all_names(self):
        assert isinstance(make_assigner("random"), RandomIdAssigner)
        assert isinstance(make_assigner("uniform"), UniformIdAssigner)
        assert isinstance(make_assigner("probing"), ProbingIdAssigner)

    def test_kwargs_forwarded(self):
        assigner = make_assigner("probing", probe_multiplier=3.0)
        assert assigner.probe_multiplier == 3.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown id assigner"):
            make_assigner("magic")


class TestWideSpaces:
    """The drawing assigners take int64 draws: at most 63 bits."""

    @pytest.mark.parametrize("name", ["random", "probing"])
    @pytest.mark.parametrize("bits", [64, 160])
    def test_drawing_assigners_reject_wider_spaces(self, name, bits):
        with pytest.raises(IdentifierError, match="at most 63 bits"):
            make_assigner(name).build_ring(IdSpace(bits), 8, rng=1)

    def test_uniform_builds_at_160_bits(self):
        space = IdSpace(160)
        ring = UniformIdAssigner().build_ring(space, 8)
        assert ring.nodes == [i * (space.size // 8) for i in range(8)]

    @pytest.mark.parametrize(
        ("name", "digest"),
        [("random", "2cd1ae23e2cea2a2"), ("probing", "8612abea9f25df0e")],
    )
    def test_63_bit_rings_unchanged(self, name, digest):
        # Pinned: the width check must not move a 63-bit ring.
        ring = make_assigner(name).build_ring(IdSpace(63), 300, rng=2007)
        assert len(ring) == 300
        packed = np.asarray(ring.nodes, np.int64).tobytes()
        assert hashlib.sha256(packed).hexdigest()[:16] == digest
