"""Unit tests for RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import RngMixin, ensure_rng, spawn_seeds


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnSeeds:
    def test_count_and_determinism(self):
        seeds = spawn_seeds(3, 5)
        assert len(seeds) == 5
        assert seeds == spawn_seeds(3, 5)

    def test_distinct(self):
        seeds = spawn_seeds(0, 20)
        assert len(set(seeds)) == 20

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestRngMixin:
    def test_stores_generator(self):
        class Thing(RngMixin):
            pass

        thing = Thing(seed=9)
        assert isinstance(thing.rng, np.random.Generator)

    def test_choice_index_respects_weights(self):
        class Thing(RngMixin):
            pass

        thing = Thing(seed=1)
        picks = [thing._choice_index([0.0, 1.0, 0.0]) for _ in range(20)]
        assert set(picks) == {1}

    def test_choice_index_rejects_zero_weights(self):
        class Thing(RngMixin):
            pass

        with pytest.raises(ValueError):
            Thing(seed=1)._choice_index([0.0, 0.0])
