"""The protocol's own messages take their binary layouts, never a JSON body.

A JSON body is the codec's rule for payloads no layout declares. If a
protocol payload drifts from its layout (a renamed field, a bool where an
id belongs, a numpy scalar), it would quietly fall back to JSON and still
work; these tests make that a failure. They wrap the JSON-body encoder and
run a live simulated overlay and a real-socket collect.

``docs/PROTOCOL.md`` gives each message kind its layout code; a drift
between that column and :data:`~repro.sim.messages.WIRE_LAYOUTS` fails
here too.
"""

from __future__ import annotations

import re
import statistics
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro import telemetry
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordConfig
from repro.chord.ring import StaticRing
from repro.core.overlay import DatOverlay
from repro.core.service import DatNodeService, StandaloneDatHost
from repro.sim import messages
from repro.sim.latency import ConstantLatency
from repro.sim.messages import WIRE_LAYOUTS
from repro.sim.simnet import SimTransport
from repro.sim.udprpc import UdpRpcTransport
from tests.oracles import build_balanced_dat

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


@pytest.fixture
def json_body():
    with mock.patch.object(messages, "_json_message", wraps=messages._json_message) as spy:
        yield spy


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.mark.parametrize("tracing", [False, True], ids=["plain", "traced"])
def test_overlay_traffic_takes_layouts(json_body, tracing):
    if tracing:
        telemetry.configure(enabled=True, tracing=True)
    space = IdSpace(16)
    transport = SimTransport(latency=ConstantLatency(0.005))
    kinds: Counter[str] = Counter()
    send = transport.send

    def counting_send(message):
        kinds[message.kind] += 1
        send(message)

    transport.send = counting_send  # type: ignore[method-assign]
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    with DatOverlay(space, transport, config,
                    value_provider=lambda ident: float(ident % 13)) as overlay:
        overlay.boot([(i * space.size) // 16 + 7 for i in range(16)], spacing=0.5)
        for key, aggregate in ((101, "sum"), (2**15, "avg"), (40_000, "count")):
            overlay.start_continuous_everywhere(key, aggregate, 0.5)
        origin = overlay.network.nodes[next(iter(overlay.network.nodes))]
        found: list[int] = []
        for key in (3, 9_000, 60_001):
            origin.lookup(key, lambda result, _path: found.append(result))
        overlay.run(6.0)
        assert overlay.root_estimate(40_000) == 16
        assert len(found) == 3
        overlay.remove_node(sorted(overlay.network.nodes)[5])  # graceful
        overlay.run(2.0)
    assert {"agg_push", "lookup", "lookup_result", "get_neighbors", "notify",
            "ping", "leave_notice"} <= set(kinds)
    assert json_body.call_count == 0


def test_std_pushes_take_the_push_layout(json_body):
    # A std state is a plain (count, mean, M2) tuple: the wire's ``state``
    # type, so a std push is as binary as a sum push (65 bytes here).
    space = IdSpace(16)
    transport = SimTransport(latency=ConstantLatency(0.005))
    sizes: Counter[int] = Counter()
    send = transport.send

    def sizing_send(message):
        if message.kind == "agg_push":
            sizes[message.encoded_size()] += 1
        send(message)

    transport.send = sizing_send  # type: ignore[method-assign]
    config = ChordConfig(stabilize_interval=0.25, fix_fingers_interval=0.05)
    values = {}
    with DatOverlay(space, transport, config,
                    value_provider=lambda ident: values.setdefault(ident, ident % 13)
                    ) as overlay:
        overlay.boot([(i * space.size) // 8 + 7 for i in range(8)], spacing=0.5)
        overlay.start_continuous_everywhere(2**15, "std", 0.5)
        overlay.run(4.0)
        estimate = overlay.root_estimate(2**15)
    assert estimate == pytest.approx(statistics.pstdev(values.values()))
    assert list(sizes) == [65]
    assert json_body.call_count == 0


def test_udp_collect_takes_layouts(json_body):
    space = IdSpace(16)
    ring = StaticRing(space, [(i * space.size) // 8 + 3 for i in range(8)])
    tables = ring.all_finger_tables()
    tree = build_balanced_dat(ring, 0, tables=tables)
    children = tree.children_map()
    with UdpRpcTransport() as transport:
        hosts, services = [], {}
        for node in ring:
            host = StandaloneDatHost(node, space, transport)
            hosts.append(host)
            services[node] = DatNodeService(
                host,
                finger_provider=lambda node=node: tables[node],
                value_provider=lambda node=node: float(node % 7 + 1),
                scheme="balanced",
                d0_provider=lambda: space.size / 8,
                children_resolver=lambda key, root, node=node: children.get(node, []),
            )
        done = threading.Event()
        results: list[float] = []
        services[tree.root].collect(
            0, tree.root, "sum", lambda r: (results.append(r), done.set())
        )
        assert done.wait(5.0)
        for service in services.values():
            service.close()
        for host in hosts:
            host.shutdown()
    assert results == [sum(float(node % 7 + 1) for node in ring)]
    assert transport.stats.total_messages() == 2 * 7
    assert json_body.call_count == 0


def _documented_layouts() -> dict[str, set[int]]:
    """Kind -> the layout codes its PROTOCOL.md table row names. A row for
    several kinds (``ping`` / ``ping_reply``) names one code per kind, in
    order; a row for one kind may name several (one per payload shape)."""
    documented: dict[str, set[int]] = {}
    for line in PROTOCOL_MD.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        kinds = re.findall(r"`([a-z_]+)`", cells[0])
        codes = [int(code) for code in re.findall(r"\d+", cells[1])]
        if len(kinds) == len(codes):
            for kind, code in zip(kinds, codes):
                documented.setdefault(kind, set()).add(code)
        else:
            assert len(kinds) == 1 or not codes, line
            for kind in kinds:
                documented.setdefault(kind, set()).update(codes)
    return documented


def test_protocol_md_layout_column_matches_the_registry():
    registered: dict[str, set[int]] = {}
    for code, (kind, _) in WIRE_LAYOUTS.items():
        registered.setdefault(kind, set()).add(code)
    documented = _documented_layouts()
    assert set(registered) <= set(documented), "a laid-out kind has no table row"
    for kind, codes in documented.items():
        assert codes == registered.get(kind, set()), kind
