"""Integration: DES run with tracing -> JSONL export -> causal assembly.

A full DAT overlay on the discrete-event simulator runs continuous pushes
and an on-demand collect round with tracing enabled, streams spans to a
JSONL file, and the assembly side must reconstruct complete causal trees —
every non-root span's parent resolves, hop counts climb the tree, and
the critical path tiles each root's duration exactly. On a live Chord ring,
a multi-hop lookup and a MAAN range scan must chain hop by hop. A traced
churn run (the dynamics experiment) must pass the report's sample and
trace gates.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.network import ChordNetwork
from repro.chord.node import ChordConfig
from repro.chord.ring import StaticRing
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.experiments.dynamics import run_dynamics
from repro.maan.attrs import AttributeSchema
from repro.maan.query import RangeQuery
from repro.maan.service import MaanNodeService
from repro.sim.latency import ConstantLatency
from repro.sim.simnet import SimTransport
from repro.telemetry import TelemetryStream
from repro.telemetry.report import load, trace_set
from repro.telemetry.report import main as report_main
from tests.oracles import build_balanced_dat


@pytest.fixture(autouse=True)
def _global_telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


def run_traced_overlay(jsonl_path, n=16, bits=8, until=6.0):
    """Continuous pushes + one collect round, spans streamed to disk."""
    telemetry.configure(enabled=True, tracing=True)
    tel = telemetry.active()
    handle = open(jsonl_path, "w", encoding="utf-8")
    export = TelemetryStream(tel, handle)
    try:
        space = IdSpace(bits)
        ring = StaticRing(space, [(i * space.size) // n for i in range(n)])
        tables = ring.all_finger_tables()
        transport = SimTransport(latency=ConstantLatency(0.001))
        key = 0
        tree = build_balanced_dat(ring, key, tables=tables)
        children_map = tree.children_map()
        values = {node: float(node % 7 + 1) for node in ring}
        services = {}
        for node in ring:
            host = StandaloneDatHost(node, space, transport)
            services[node] = DatNodeService(
                host,
                finger_provider=lambda node=node: tables[node],
                value_provider=lambda node=node: values[node],
                scheme="balanced",
                d0_provider=lambda: space.size / n,
                children_resolver=lambda key, root, node=node: children_map.get(
                    node, []
                ),
            )
        for service in services.values():
            service.start_continuous(key, tree.root, "sum", interval=1.0)
        collected: list[float] = []
        services[tree.root].collect(key, tree.root, "sum", collected.append)
        transport.run(until=until)
        assert collected == [sum(values.values())]
        return tree
    finally:
        export.close()
        handle.close()
        telemetry.disable()


def run_traced_walks(jsonl_path, n=16, bits=12):
    """One Chord lookup and one MAAN range scan on a converged live ring.

    Returns the looked-up key. The ring is built untraced; only the two
    walks (and whatever maintenance runs beside them) reach the export.
    """
    space = IdSpace(bits)
    transport = SimTransport(latency=ConstantLatency(0.001))
    network = ChordNetwork(
        space, transport, ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    )
    for i in range(n):
        network.add_node((i * space.size) // n + 3)
        network.settle(1.0)
    network.settle_until_converged()
    for node in network.nodes.values():
        node.fix_all_fingers()
    schemas = {"cpu": AttributeSchema("cpu", low=0.0, high=100.0)}
    services = {ident: MaanNodeService(node, schemas) for ident, node in network.nodes.items()}
    origin = min(network.nodes)
    key = space.wrap(origin - 1)  # owned by the origin: the longest route there is
    telemetry.configure(enabled=True, tracing=True)
    handle = open(jsonl_path, "w", encoding="utf-8")
    export = TelemetryStream(telemetry.active(), handle)
    try:
        paths, scans = [], []
        network.nodes[origin].lookup(key, lambda _owner, path: paths.append(path))
        services[origin].range_query(RangeQuery("cpu", 0.0, 100.0), scans.append)
        transport.run(until=transport.now() + 2.0)
        assert len(paths) == len(scans) == 1
        return key
    finally:
        export.close()
        handle.close()
        telemetry.disable()


class TestTraceRoundtrip:
    def test_multi_hop_forwards_chain_hop_by_hop(self, tmp_path):
        # Regression: a forward built as {**payload, ...} carried the
        # incoming hop's trace context; without re-propagating, every hop
        # of a walk hung off the first and the chain flattened.
        path = tmp_path / "walks.jsonl"
        key = run_traced_walks(path)
        result = trace_set(load([path]).events)
        (lookup,) = [t for t in result.rooted("chord.lookup") if t.root.attrs["key"] == key]
        (scan,) = result.rooted("maan.live_query")
        for trace, hop_name, counter in (
            (lookup, "chord.lookup_hop", "hops"),
            (scan, "maan.scan_hop", "visited"),
        ):
            hops = sorted(
                (s for s in trace.spans if s.name == hop_name), key=lambda s: s.attrs[counter]
            )
            assert len(hops) >= 3, hop_name
            for previous, span in zip(hops, hops[1:]):
                assert span.attrs[counter] == previous.attrs[counter] + 1
                assert span.trace_parent == previous.sid
                assert span.hop == previous.hop + 1

    def test_every_push_and_collect_assembles_rooted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_traced_overlay(path)
        result = trace_set(load([path]).events)

        assert result.total_spans > 0
        assert result.duplicates == 0
        # Complete causal trees: every parent reference resolved.
        assert result.orphans() == []

        pushes = result.rooted("dat.push")
        assert pushes, "continuous mode produced no push traces"
        # All but the final in-flight interval's pushes must have climbed
        # one hop into their parent's dat.push_recv handler.
        horizon = result.max_end() - 1.5
        for trace in pushes:
            if trace.root.start <= horizon:
                assert trace.depth() >= 1
                assert trace.hops() >= 1
                names = {s.name for s in trace.spans}
                assert "dat.push_recv" in names

        # The gathercast/collect round roots its own multi-hop trace.
        collects = result.rooted("dat.collect")
        assert len(collects) == 1
        collect = collects[0]
        assert collect.depth() >= 1
        assert {s.name for s in collect.spans} >= {"dat.collect", "dat.collect_hop"}
        # The round fans out across nodes: context crossed the (simulated)
        # node boundary into every hop handler.
        assert len(collect.nodes()) > 1

        # Critical-path tiling invariant over every assembled trace.
        for trace in result.traces:
            assert trace.critical_path_latency() == pytest.approx(
                trace.duration, abs=1e-9
            )
            attribution = trace.node_attribution()
            assert sum(attribution.values()) == pytest.approx(
                trace.duration, abs=1e-9
            )

    def test_cli_gate_passes_on_real_export(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        run_traced_overlay(path)
        rc = report_main(
            [
                str(path),
                "--require-root",
                "dat.push",
                "--min-depth",
                "1",
                "--tail-grace",
                "1.5",
                "--check-critical-path",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "check ok" in out


def test_dynamics_stream_passes_the_report_gates(tmp_path, capsys):
    path = tmp_path / "telemetry.jsonl"
    tel = telemetry.configure(enabled=True, tracing=True, sample_window=1.0)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            export = TelemetryStream(tel, handle)
            run_dynamics(churn_rates=[0.0, 0.3], n_nodes=8, duration=10.0, seed=2007)
            export.close()
    finally:
        telemetry.disable()
    capsys.readouterr()
    rc = report_main(
        [
            str(path),
            "--require-samples", "dynamics",
            "--require-root", "dat.push", "--min-depth", "1", "--tail-grace", "2.0",
            "--check-critical-path",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "CHECK FAIL" not in out and "rolling-imbalance series" in out
