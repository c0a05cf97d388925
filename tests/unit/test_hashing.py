"""Unit tests for consistent and locality-preserving hashing."""

import pytest

from repro.chord.hashing import LocalityPreservingHash, sha1_id
from repro.chord.idspace import IdSpace
from repro.errors import IdentifierError


class TestSha1Id:
    def test_deterministic(self):
        space = IdSpace(32)
        assert sha1_id("cpu-usage", space) == sha1_id("cpu-usage", space)

    def test_in_range(self):
        for bits in (4, 16, 64, 160):
            space = IdSpace(bits)
            ident = sha1_id("hello", space)
            assert 0 <= ident < space.size

    def test_distinct_names_distinct_ids(self):
        space = IdSpace(64)
        ids = {sha1_id(f"attr-{i}", space) for i in range(100)}
        assert len(ids) == 100

    def test_bytes_and_str_forms(self):
        space = IdSpace(32)
        assert sha1_id("abc", space) == sha1_id(b"abc", space)

    def test_wide_space_beyond_sha1(self):
        space = IdSpace(320)
        ident = sha1_id("x", space)
        assert 0 <= ident < space.size

    def test_truncation_consistency(self):
        # The 8-bit id must be the top byte of the 16-bit id.
        wide = sha1_id("name", IdSpace(16))
        narrow = sha1_id("name", IdSpace(8))
        assert narrow == wide >> 8

    def test_roughly_uniform(self):
        space = IdSpace(8)
        buckets = [0] * 4
        for i in range(2000):
            buckets[sha1_id(f"key-{i}", space) // 64] += 1
        assert min(buckets) > 2000 / 4 * 0.7


class TestLocalityPreservingHash:
    def test_monotone(self):
        h = LocalityPreservingHash(IdSpace(16), low=0.0, high=100.0)
        values = [0, 1, 10, 49.5, 50, 99, 100]
        images = [h(v) for v in values]
        assert images == sorted(images)

    def test_bounds_map_to_extremes(self):
        space = IdSpace(16)
        h = LocalityPreservingHash(space, low=0.0, high=100.0)
        assert h(0.0) == 0
        assert h(100.0) == space.max_id

    def test_clamps_out_of_domain(self):
        space = IdSpace(16)
        h = LocalityPreservingHash(space, low=0.0, high=100.0)
        assert h(-5) == h(0)
        assert h(105) == h(100)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(IdentifierError):
            LocalityPreservingHash(IdSpace(16), low=5.0, high=5.0)

    def test_proportional_spacing(self):
        # Equal value gaps map to equal identifier gaps (affine map).
        space = IdSpace(20)
        h = LocalityPreservingHash(space, low=0.0, high=10.0)
        gap1 = h(4.0) - h(2.0)
        gap2 = h(8.0) - h(6.0)
        assert abs(gap1 - gap2) <= 1
