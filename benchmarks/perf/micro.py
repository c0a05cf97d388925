"""Isolated cost of each layer's public calls (per-layer source (a)).

Every figure is the best of a few repeats of a tight loop over seeded
inputs of the kind the workloads produce — best, not median, because the
only noise a tight loop sees on a shared host is interference, which only
ever adds time. Sizes mirror the workloads: the array layers run on a
65 536-node ring, the object layers on 2048 and 64 nodes (4096, 256 and 16
under ``--quick``).
"""

from __future__ import annotations

import math
import threading
import time
import timeit
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.chord.block import ChordNodeBlock
from repro.chord.fastbuild import fast_finger_matrix, fast_tree_arrays
from repro.chord.incremental import DatUpdateEngine
from repro.chord.network import ChordNetwork
from repro.core.aggregates import get_aggregate
from repro.core.builder import DatTreeBuilder, build_dat
from repro.core.limiting import FingerLimiter
from repro.core.parent import select_parent_balanced
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.core.slab import SlabContinuousRun
from repro.net import Batcher, DeferredResponder, RpcClient, gather
from repro.sim.engine import SimulationEngine
from repro.sim.latency import ConstantLatency
from repro.sim.messages import (
    Message,
    decode_message,
    encode_message,
    float_repr_lengths,
    int_digit_counts,
    reset_msg_ids,
)
from repro.sim.simnet import SimTransport
from repro.sim.transport import Transport
from repro.sim.udprpc import UdpRpcTransport
from repro.telemetry.hotspot import HotspotAccountant

from workloads import (
    SPACE,
    membership_events,
    seeded_ring,
    seeded_values,
    static_services,
)

pc = time.perf_counter


def best(run: Callable[[], Any], repeat: int = 5, between: Any = "pass") -> float:
    """Seconds of the fastest of ``repeat`` calls of ``run``; ``between``
    runs untimed before each call."""
    return min(timeit.repeat(run, setup=between, number=1, repeat=repeat))


class _NullTransport(Transport):
    """Swallows sends and timers: isolates ``repro.net`` from the simulator."""

    def send(self, message: Message) -> None:
        pass

    def schedule(self, delay: float, callback: Callable[[], None]) -> Callable[[], None]:
        return lambda: None

    def now(self) -> float:
        return 0.0


class _BatchTap(SimTransport):
    """Keeps the last batch a slab run handed to the transport."""

    last: tuple[Any, Any] | None = None

    def send_batch(self, batch: Any, deliver: Any) -> None:
        self.last = (batch, deliver)
        super().send_batch(batch, deliver)


def _echo(message: Message) -> Message:
    return message.response(ok=True)


def run_micro(seed: int, quick: bool) -> dict[str, float]:
    rng = np.random.default_rng([seed, 99])
    reset_msg_ids()
    out: dict[str, float] = {}
    n_big = 4096 if quick else 65536
    n_obj = 256 if quick else 2048
    loops = 200 if quick else 800
    repeat = 2 if quick else 3

    # ---- array layers on the big ring --------------------------------- #
    start = pc()
    ring = seeded_ring(rng, n_big)
    out["chord.idgen.probing_ring_us_per_node"] = (pc() - start) / n_big * 1e6
    out["chord.fastbuild.finger_matrix_us_per_node"] = (
        best(lambda: fast_finger_matrix(ring), 2) / n_big * 1e6
    )
    box: list[ChordNodeBlock] = []
    out["chord.block.from_ring_us_per_node"] = (
        best(lambda: box.append(ChordNodeBlock.from_ring(ring)), 2) / n_big * 1e6
    )
    block = box[-1]
    key = int(rng.integers(0, SPACE.size))
    out["chord.block.key_parents_us_per_node"] = (
        best(lambda: block.key_parents(key, "balanced"), repeat) / n_big * 1e6
    )
    out["chord.fastbuild.tree_arrays_us_per_node"] = (
        best(lambda: fast_tree_arrays(ring, key, "balanced", block.matrix), repeat)
        / n_big * 1e6
    )
    builder = DatTreeBuilder(ring, "balanced")
    builder.finger_matrix  # noqa: B018
    out["core.builder.tree_stats_ms"] = best(lambda: builder.tree_stats(key), repeat) * 1e3

    values = seeded_values(rng, n_big)
    transport = _BatchTap()
    slab = SlabContinuousRun(block, transport, key, "sum", values)
    pushes = len(slab.push_rows)

    # Deliveries of the previous round are drained outside the timer.
    out["core.slab.round_us_per_push"] = (
        best(slab.push_round, repeat, between=transport.run) / pushes * 1e6
    )
    out["core.slab.state_bytes_per_node"] = slab.state_nbytes() / n_big

    assert transport.last is not None  # one real round's batch
    batch, deliver = transport.last
    out["sim.simnet.send_batch_us_per_msg"] = (
        best(lambda: transport.send_batch(batch, deliver), repeat, between=transport.run)
        / len(batch) * 1e6
    )
    out["telemetry.hotspot.record_send_bulk_us_per_msg"] = (
        best(
            lambda: HotspotAccountant().record_send_bulk(
                batch.sources, batch.sizes, kind="agg_push"
            ),
            repeat,
        )
        / len(batch) * 1e6
    )
    ids_column, state_column = batch.msg_ids(), batch.payload_columns["state0"]
    out["sim.messages.batch_size_us_per_msg"] = (
        best(
            lambda: (int_digit_counts(ids_column), float_repr_lengths(state_column)),
            repeat,
        )
        / len(batch) * 1e6
    )

    # ---- event engine -------------------------------------------------- #
    engine = SimulationEngine()
    for i in range(2048):
        engine.schedule(1e9 + i, _noop)

    def schedule_pop() -> None:
        now = engine.now
        for i in range(loops):
            engine.schedule(1e-6 * i, _noop)
        engine.run(until=now + 1.0)

    out["sim.engine.schedule_pop_us"] = best(schedule_pop, repeat) / loops * 1e6

    def cancel_cost() -> float:
        events = [engine.schedule(5e8 + i, _noop) for i in range(loops)]
        start = pc()
        for event in events:
            event.cancel()
        return pc() - start

    out["sim.engine.cancel_us"] = min(cancel_cost() for _ in range(repeat)) / loops * 1e6

    # ---- wire codec on real messages ----------------------------------- #
    push = Message("agg_push", 3735928559, 305419896, {"key": key, "state": 3371.0})
    partial = Message(
        "agg_collect", 305419896, 3735928559,
        {"key": key, "root": 305419896, "round_id": 7, "aggregate": "sum"},
    ).response(kind="agg_partial", key=key, round_id=7, state=3371.0)
    lookup = Message(
        "lookup", 3735928559, 305419896,
        {"key": key, "origin": 3735928559, "hops": 2,
         "path": [3735928559, 2271560481], "token": 4242},
    )
    samples = [push, partial, lookup]
    wire = [encode_message(m) for m in samples]
    per_call = loops * len(samples)
    out["sim.messages.encode_us"] = (
        best(lambda: [encode_message(m) for _ in range(loops) for m in samples], repeat)
        / per_call * 1e6
    )
    out["sim.messages.decode_us"] = (
        best(lambda: [decode_message(w) for _ in range(loops) for w in wire], repeat)
        / per_call * 1e6
    )
    out["sim.messages.encoded_size_us"] = (
        best(lambda: [m.encoded_size() for _ in range(loops) for m in samples], repeat)
        / per_call * 1e6
    )

    # ---- simulated transport and the session layer above it ------------ #
    sim = SimTransport(latency=ConstantLatency(0.0))
    sim.register(1, _drop)
    sim.register(2, _echo)
    one_way = [Message("agg_push", 2, 1, {"key": key, "state": 3371.0}) for _ in range(loops)]

    def send_dispatch() -> None:
        for message in one_way:
            sim.send(message)
        sim.run()

    out["sim.simnet.send_us"] = best(send_dispatch, repeat) / loops * 1e6

    def expect_cost() -> float:
        requests = [Message("ping", 1, 2) for _ in range(loops)]
        start = pc()
        for request in requests:
            sim.expect(request, _drop, timeout=math.inf)
        elapsed = pc() - start
        sim.cancel_calls(1)
        return elapsed

    out["sim.transport.expect_us"] = min(expect_cost() for _ in range(repeat)) / loops * 1e6

    client = RpcClient(sim, 1)

    def rpc_round_trips() -> None:
        for _ in range(loops):
            client.call(Message("ping", 1, 2), _drop)
        sim.run()

    out["net.client.call_us"] = best(rpc_round_trips, repeat) / loops * 1e6

    fan = SimTransport(latency=ConstantLatency(0.0))
    fan.register(1, _drop)
    for peer in range(2, 10):
        fan.register(peer, _echo)
    fan_client = RpcClient(fan, 1)
    rounds = max(loops // 8, 1)

    def gather_rounds() -> None:
        for _ in range(rounds):
            gather(
                fan_client,
                [Message("agg_collect", 1, peer) for peer in range(2, 10)],
                lambda _replies, _failed: None,
            )
        fan.run()

    out["net.fanout.gather_us_per_req"] = best(gather_rounds, repeat) / (rounds * 8) * 1e6

    null = _NullTransport()
    request = Message("agg_collect", 2, 1, {"key": key})
    reply = request.response(kind="agg_partial", state=1.0)

    def deferred_cycles() -> None:
        responder = DeferredResponder(null)
        for i in range(loops):
            responder.begin(i, request)
            responder.complete(i, reply)

    out["net.envelope.deferred_us"] = best(deferred_cycles, repeat) / loops * 1e6
    batcher = Batcher(null, 0.0)
    out["net.fanout.batcher_enqueue_us"] = (
        best(lambda: [batcher.enqueue(m) for m in one_way], repeat) / loops * 1e6
    )

    # ---- real sockets ---------------------------------------------------- #
    trips = 50 if quick else 300
    with UdpRpcTransport("127.0.0.1") as udp:
        udp.register(1, _drop)
        udp.register(2, _echo)
        udp_client = RpcClient(udp, 1)

        def udp_round_trips() -> None:
            for _ in range(trips):
                done = threading.Event()
                udp_client.call(Message("ping", 1, 2), lambda _r, done=done: done.set())
                done.wait(5.0)

        out["sim.udprpc.roundtrip_us"] = best(udp_round_trips, 3) / trips * 1e6

    # ---- Chord routing ------------------------------------------------- #
    small = seeded_ring(rng, 16 if quick else 64)
    net_transport = SimTransport(latency=ConstantLatency(0.0))
    network = ChordNetwork(SPACE, net_transport)
    network.build_incrementally(small.nodes, settle_between=0.25)
    network.settle_until_converged()
    for node in network.nodes.values():
        node.fix_all_fingers()
    network.settle(2.0)
    for node in network.nodes.values():
        node.stop_maintenance()
    net_transport.run()
    members = list(network.nodes.values())
    targets = [int(k) for k in rng.integers(0, SPACE.size, size=loops // 4)]
    hops: list[int] = []

    def lookups() -> None:
        hops.clear()
        for i, target in enumerate(targets):
            members[i % len(members)].lookup(target, lambda _n, path: hops.append(len(path)))
        net_transport.run()

    seconds = best(lookups, repeat)
    out["chord.node.lookup_hop_us"] = seconds / max(sum(hops), 1) * 1e6

    # ---- parent selection on object tables ----------------------------- #
    obj_ring = seeded_ring(rng, n_obj)
    tables = [obj_ring.finger_table(ident) for ident in obj_ring.nodes]
    root = obj_ring.successor(key)
    out["chord.fingers.closest_preceding_us"] = (
        best(lambda: [t.closest_preceding(key) for t in tables], repeat) / n_obj * 1e6
    )
    d0 = SPACE.size / n_obj
    distances = [SPACE.cw(ident, key) for ident in obj_ring.nodes]
    out["core.limiting.finger_limit_us"] = (
        best(lambda: [FingerLimiter.for_gap(d0)(x) for x in distances], repeat)
        / n_obj * 1e6
    )
    limiter = FingerLimiter.for_gap(d0)
    others = [t for t in tables if t.owner != root]
    out["core.parent.select_balanced_us"] = (
        best(lambda: [select_parent_balanced(t, root, limiter) for t in others], repeat)
        / len(others) * 1e6
    )

    # ---- DAT service --------------------------------------------------- #
    sum_aggregate = get_aggregate("sum")
    states = [41.0, 3371.0, 128.0]
    out["core.aggregates.merge_us"] = (
        best(lambda: [sum_aggregate.merge_all(states) for _ in range(loops)], repeat)
        / loops * 1e6
    )

    tick_transport = SimTransport()
    ident = next(i for i in obj_ring.nodes if i != root)
    host = StandaloneDatHost(ident, SPACE, tick_transport)
    table = obj_ring.finger_table(ident)
    service = DatNodeService(
        host, finger_provider=lambda: table, value_provider=lambda: 41.0,
        scheme="balanced", d0_provider=lambda: d0,
    )
    # Two child states that never go stale; the parent is unregistered, so
    # the push is sent (and accounted) but goes nowhere.
    service.start_continuous(key, root, "sum", 1.0, stale_after=1e12)
    for child in (1, 2):
        host.upcalls.dispatch(
            Message("agg_push", child, ident, {"key": key, "state": 7.0})
        )
    ticks = max(loops // 4, 1)

    def push_ticks() -> None:
        tick_transport.run(until=tick_transport.now() + ticks)

    out["core.service.push_tick_us"] = best(push_ticks, repeat) / ticks * 1e6
    service.close()
    host.shutdown()

    collect_ring = small
    collect_values = seeded_values(rng, len(collect_ring))
    tree = build_dat(collect_ring, key, "balanced")
    collect_transport = SimTransport(latency=ConstantLatency(0.0))
    _hosts, services = static_services(
        collect_ring, collect_transport, collect_values, {key: tree.children_map()}
    )
    root_service = services[collect_ring.nodes.index(tree.root)]
    collects = max(loops // 40, 2)
    results: list[Any] = []

    def collect_rounds() -> None:
        for _ in range(collects):
            root_service.collect(key, tree.root, "sum", results.append)
            collect_transport.run()

    out["core.service.collect_us_per_node"] = (
        best(collect_rounds, repeat) / (collects * len(collect_ring)) * 1e6
    )
    if set(results) != {float(collect_values.sum())}:
        raise AssertionError("micro collect returned a wrong sum")

    # ---- incremental maintenance --------------------------------------- #
    maint_ring = seeded_ring(rng, 512 if quick else 4096)
    engine_inc = DatUpdateEngine(maint_ring, "balanced")
    engine_inc.track(key)
    n_events = 100 if quick else 400
    events = membership_events(rng, maint_ring.nodes, n_events, len(maint_ring) // 2)
    start = pc()
    reports = [engine_inc.apply(kind, who) for kind, who in events]
    out["chord.incremental.apply_us"] = (pc() - start) / len(events) * 1e6
    out["chord.incremental.finger_updates_per_op"] = (
        sum(r.finger_updates for r in reports) / len(events)
    )
    out["chord.incremental.parent_updates_per_op"] = (
        sum(r.parent_updates for r in reports) / len(events)
    )

    # ---- telemetry (disabled, the default) ----------------------------- #
    accountant = HotspotAccountant()
    out["telemetry.hotspot.record_send_us"] = (
        best(
            lambda: [accountant.record_send(i & 63, 123, "agg_push") for i in range(loops)],
            repeat,
        )
        / loops * 1e6
    )
    if telemetry.is_enabled():
        raise AssertionError("telemetry must be disabled for the ledger")
    count = telemetry.count
    out["telemetry.runtime.count_disabled_ns"] = (
        best(lambda: [count("agg_pushes_total") for _ in range(loops)], repeat)
        / loops * 1e9
    )
    return out


def _noop() -> None:
    pass


def _drop(_message: Message) -> None:
    return None
