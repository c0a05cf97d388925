"""Unit tests for greedy finger routing."""

from repro.chord.idgen import RandomIdAssigner
from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.chord.routing import finger_route, route_lengths
from repro.util.bits import ceil_log2


class TestFingerRoute:
    def test_paper_route_n1_to_n0(self, full_ring4):
        # Paper Sec. 3.2: the finger route from N1 to N0 is <1, 9, 13, 15, 0>.
        result = finger_route(full_ring4, 1, 0)
        assert result.path == (1, 9, 13, 15, 0)
        assert result.hops == 4

    def test_source_is_destination(self, full_ring4):
        result = finger_route(full_ring4, 0, 0)
        assert result.path == (0,)
        assert result.hops == 0

    def test_terminates_at_successor_of_key(self, full_ring4):
        ring = StaticRing(full_ring4.space, [2, 8, 14])
        result = finger_route(ring, 2, 5)
        assert result.destination == 8

    def test_route_properties(self):
        assert finger_route.__doc__  # public API is documented

    def test_loop_free(self, full_ring4):
        for source in full_ring4:
            path = finger_route(full_ring4, source, 0).path
            assert len(set(path)) == len(path)

    def test_each_hop_halves_distance(self, full_ring4):
        # Fingers are exponentially spaced: each hop at least halves the
        # remaining clockwise distance to the key (paper Sec. 3.1).
        space = full_ring4.space
        key = 0
        for source in full_ring4:
            path = finger_route(full_ring4, source, key).path
            for current, nxt in zip(path, path[1:]):
                remaining = space.cw(current, key) or space.size
                after = space.cw(nxt, key)
                assert after <= remaining / 2 or nxt == 0

    def test_shared_tables_give_identical_routes(self, full_ring4):
        tables = full_ring4.all_finger_tables()
        for source in (1, 6, 11):
            a = finger_route(full_ring4, source, 0)
            b = finger_route(full_ring4, source, 0, tables=tables)
            assert a.path == b.path

    def test_next_hop_consistency(self, full_ring4):
        # Paper Sec. 3.2 property (2): a node's next hop toward the root is
        # the same regardless of which finger route it appears in.
        next_hop: dict[int, int] = {}
        for source in full_ring4:
            path = finger_route(full_ring4, source, 0).path
            for node, nxt in zip(path, path[1:]):
                assert next_hop.setdefault(node, nxt) == nxt


class TestRouteLengths:
    def test_log_bound_random_ring(self):
        space = IdSpace(32)
        ring = RandomIdAssigner().build_ring(space, 256, rng=11)
        lengths = route_lengths(ring, key=12345)
        # O(log n): with high probability <= 2*log2(n) hops.
        assert max(lengths.values()) <= 2 * ceil_log2(256)

    def test_full_ring_max_length_is_bits(self, full_ring4):
        lengths = route_lengths(full_ring4, key=0)
        assert max(lengths.values()) == full_ring4.space.bits

    def test_destination_has_zero_hops(self, full_ring4):
        lengths = route_lengths(full_ring4, key=0)
        assert lengths[0] == 0


class TestRouteResult:
    def test_accessors(self, full_ring4):
        result = finger_route(full_ring4, 3, 0)
        assert result.source == 3
        assert result.destination == 0
        assert result.hops == len(result.path) - 1
