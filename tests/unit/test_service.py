"""Unit tests for the DAT protocol service (on-demand + continuous modes)."""

import sys

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import StaticRing
from repro.core.builder import build_balanced_dat
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.errors import AggregationError
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport


def build_services(
    n: int = 16,
    bits: int = 8,
    scheme: str = "balanced",
    values: dict[int, float] | None = None,
):
    """A full overlay of standalone DAT services over a sim transport."""
    space = IdSpace(bits)
    ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
    tables = ring.all_finger_tables()
    transport = SimTransport(latency=ConstantLatency(0.001))
    key = 0
    tree = build_balanced_dat(ring, key, tables=tables)
    children_map = tree.children_map()
    local_values = values if values is not None else {node: float(node) for node in ring}

    services: dict[int, DatNodeService] = {}
    for node in ring:
        host = StandaloneDatHost(node, space, transport)
        services[node] = DatNodeService(
            host,
            finger_provider=lambda node=node: tables[node],
            value_provider=lambda node=node: local_values[node],
            scheme=scheme,
            d0_provider=lambda: space.size / n,
            children_resolver=lambda key, root, node=node: children_map.get(node, []),
        )
    return space, ring, transport, tree, services, local_values


class TestParentComputation:
    def test_matches_static_builder(self):
        _space, ring, _transport, tree, services, _values = build_services()
        for node, service in services.items():
            # A member key makes the key-addressed rule the root-addressed
            # one at every non-root node; the root (which finalizes instead
            # of pushing) gets the documented successor fallback.
            expected = tree.parent.get(node, ring.successor_of_node(node))
            assert service.parent_toward_key(tree.root) == expected

    def test_basic_scheme(self):
        _space, ring, _transport, _tree, services, _values = build_services(
            scheme="basic"
        )
        from repro.core.builder import build_basic_dat

        basic = build_basic_dat(ring, 0)
        for node, service in services.items():
            expected = basic.parent.get(node, ring.successor_of_node(node))
            assert service.parent_toward_key(basic.root) == expected

    def test_gap_change_between_pushes_moves_the_parent(self):
        # A live overlay revises d0 under churn: the provider is asked on
        # every push and the next parent follows the new estimate.
        from repro.core.limiting import FingerLimiter
        from repro.core.parent import select_parent_balanced

        space, ring, transport, tree, _services, _values = build_services()
        tables = ring.all_finger_tables()
        gaps = [space.size / len(ring), 1.0]

        def parent_under(node, gap):
            return select_parent_balanced(
                tables[node], tree.root, FingerLimiter.for_gap(gap)
            )

        node = next(
            n for n in ring
            if n != tree.root and parent_under(n, gaps[0]) != parent_under(n, gaps[1])
        )
        asked: list[float] = []

        def d0_provider() -> float:
            asked.append(gaps[0])
            return gaps[0]

        service = DatNodeService(
            StandaloneDatHost(node, space, SimTransport()),
            finger_provider=lambda: tables[node],
            value_provider=lambda: 0.0,
            d0_provider=d0_provider,
        )
        assert service.parent_toward_key(0) == parent_under(node, gaps[0])
        gaps.reverse()
        assert service.parent_toward_key(0) == parent_under(node, gaps[0])
        assert len(asked) == 2

    def test_balanced_requires_d0(self):
        space = IdSpace(8)
        transport = SimTransport()
        host = StandaloneDatHost(1, space, transport)
        with pytest.raises(ValueError):
            DatNodeService(
                host,
                finger_provider=lambda: None,
                value_provider=lambda: 0.0,
                scheme="balanced",
            )

    def test_rejects_unknown_scheme(self):
        space = IdSpace(8)
        transport = SimTransport()
        host = StandaloneDatHost(2, space, transport)
        with pytest.raises(ValueError):
            DatNodeService(
                host,
                finger_provider=lambda: None,
                value_provider=lambda: 0.0,
                scheme="turbo",
            )


class TestOnDemand:
    def test_sum_over_tree(self):
        _space, ring, transport, tree, services, values = build_services()
        results: list[float] = []
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=5.0)
        assert results == [sum(values.values())]

    def test_avg(self):
        _space, ring, transport, tree, services, values = build_services()
        results: list[float] = []
        services[tree.root].collect(0, tree.root, "avg", results.append)
        transport.run(until=5.0)
        assert results[0] == pytest.approx(sum(values.values()) / len(values))

    def test_count_equals_n(self):
        _space, ring, transport, tree, services, _values = build_services(n=20)
        results: list[int] = []
        services[tree.root].collect(0, tree.root, "count", results.append)
        transport.run(until=5.0)
        assert results == [20]

    def test_collect_from_non_root_rejected(self):
        _space, ring, transport, tree, services, _values = build_services()
        non_root = next(node for node in services if node != tree.root)
        with pytest.raises(AggregationError):
            services[non_root].collect(0, tree.root, "sum", lambda r: None)

    def test_collect_without_resolver_rejected(self):
        space = IdSpace(8)
        transport = SimTransport()
        host = StandaloneDatHost(3, space, transport)
        service = DatNodeService(
            host,
            finger_provider=lambda: None,
            value_provider=lambda: 0.0,
            scheme="basic",
        )
        with pytest.raises(AggregationError):
            service.collect(0, 3, "sum", lambda r: None)

    def test_message_economics(self):
        # One on-demand round costs 2 messages per non-root node
        # (collect down + partial up).
        _space, ring, transport, tree, services, _values = build_services(n=16)
        transport.stats.reset()
        done: list[float] = []
        services[tree.root].collect(0, tree.root, "sum", done.append)
        transport.run(until=5.0)
        assert done
        assert transport.stats.total_messages() == 2 * (len(ring) - 1)

    def test_two_rounds_independent(self):
        _space, ring, transport, tree, services, values = build_services()
        results: list[float] = []
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=5.0)
        values[ring.nodes[1]] += 100.0
        services[tree.root].collect(0, tree.root, "sum", results.append)
        transport.run(until=10.0)
        assert results[1] == results[0] + 100.0


class TestContinuous:
    def test_root_estimate_converges(self):
        _space, ring, transport, tree, services, values = build_services()
        for node, service in services.items():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        # After height * interval the estimate covers the whole network.
        transport.run(until=0.5 * (tree.height + 2) + 0.1)
        estimate = services[tree.root].root_estimate(0)
        assert estimate == pytest.approx(sum(values.values()))

    def test_estimate_tracks_changes(self):
        _space, ring, transport, tree, services, values = build_services()
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        transport.run(until=10.0)
        before = services[tree.root].root_estimate(0)
        leaf = tree.leaves()[0]
        values[leaf] += 50.0
        transport.run(until=20.0)
        after = services[tree.root].root_estimate(0)
        assert after == pytest.approx(before + 50.0)

    def test_stop_continuous(self):
        _space, ring, transport, tree, services, _values = build_services()
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=0.5)
        transport.run(until=5.0)
        for service in services.values():
            service.stop_continuous(0)
        sent_before = transport.stats.total_messages()
        transport.run(until=10.0)
        assert transport.stats.total_messages() == sent_before

    def test_root_estimate_requires_active_key(self):
        _space, _ring, _transport, tree, services, _values = build_services()
        with pytest.raises(AggregationError):
            services[tree.root].root_estimate(123)

    def test_push_economics(self):
        # Continuous mode: one push per non-root node per interval.
        _space, ring, transport, tree, services, _values = build_services(n=8)
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=1.0)
        transport.stats.reset()
        transport.run(until=10.0)
        pushes = transport.stats.by_kind().get("agg_push", 0)
        assert pushes == 10 * (len(ring) - 1)


class TestPushCost:
    """What one push costs on the object path, counted rather than timed.

    One steady-state interval at n = 1024 (every node: tick, parent choice,
    ``send``, ``deliver``, ``_on_push``), every call made — Python or
    builtin — divided by the pushes sent. A sift loop in Python or a
    rational ``g(x)`` per push each add dozens of calls; so does an
    ``IdSpace`` property chain, a ``schedule -> schedule_at -> push`` or
    ``pop -> peek -> unlink`` chain, or a span entered with tracing off.
    The push measures about 80. No frame of ``fractions.py`` may run: the
    limiter is built when ``d0`` changes, not per push. No frame of
    ``json/encoder.py`` may run either: a message is sized by the prebuilt
    C encoder on its payload alone, not by ``JSONEncoder.encode`` on an
    envelope.
    """

    N_NODES = 1024
    MAX_CALLS_PER_PUSH = 90

    def test_steady_state_interval_call_count(self):
        _space, _ring, transport, tree, services, _values = build_services(
            n=self.N_NODES, bits=32
        )
        for service in services.values():
            service.start_continuous(0, tree.root, "sum", interval=1.0)
        transport.run(until=3.5)  # three intervals pushed and delivered
        sent_before = transport.stats.total_messages()

        counts = {"call": 0, "c_call": 0, "fractions": 0, "json_encoder": 0}
        banned = {"fractions": "fractions.py", "json_encoder": "json/encoder.py"}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1
                if event == "call":
                    filename = frame.f_code.co_filename.replace("\\", "/")
                    for name, suffix in banned.items():
                        if filename.endswith(suffix):
                            counts[name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            transport.run(until=4.5)  # interval four: sent at 4.0, delivered at 4.001
        finally:
            sys.setprofile(previous)
        pushes = transport.stats.total_messages() - sent_before
        assert pushes == self.N_NODES - 1
        per_push = (counts["call"] + counts["c_call"]) / pushes
        assert per_push < self.MAX_CALLS_PER_PUSH, counts
        assert counts["fractions"] == 0, counts
        assert counts["json_encoder"] == 0, counts


class TestStateCoding:
    def test_moment_state_roundtrip(self):
        from repro.core.aggregates import StdAggregate
        from repro.core.service import _decode_state, _encode_state

        agg = StdAggregate()
        state = agg.merge(agg.lift(3.0), agg.lift(5.0))
        restored = _decode_state(_encode_state(state), agg)
        assert restored == state

    def test_tuple_roundtrip(self):
        from repro.core.aggregates import AverageAggregate
        from repro.core.service import _decode_state, _encode_state

        agg = AverageAggregate()
        state = (10.0, 3)
        assert _decode_state(_encode_state(state), agg) == state

    def test_json_list_decodes_to_tuple(self):
        from repro.core.aggregates import AverageAggregate
        from repro.core.service import _decode_state

        assert _decode_state([10.0, 3], AverageAggregate()) == (10.0, 3)
