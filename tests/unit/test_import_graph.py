"""Import-graph ratchets and source rules over every module under ``src/repro/``.

Layer order (low to high): ``util, telemetry -> sim -> net -> chord -> core
-> maan, gma -> experiments, fleet``. A back-edge is an import a module runs
at load time (not under ``TYPE_CHECKING``, not inside a function) of a module
in a higher layer. An orphan is a module under ``src/repro/`` that no
non-``__init__`` module under ``src/``, ``benchmarks/`` or ``examples/``
imports: a second implementation only its own tests run. The same goes one
level down for every package under ``src/repro/``: an orphan name is a public
function or method whose name no other module under ``src/``,
``benchmarks/`` or ``examples/`` mentions (as a name, an attribute or an
import). All three lists below may only shrink: an entry that is not listed
fails, and so does a listed entry that no longer exists.

The four source rules at the end keep seeded runs replayable and RPC policy
in the session layer: each is one AST pattern plus the modules allowed to use
it.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

LAYERS = [{"util", "telemetry"}, {"sim"}, {"net"}, {"chord"}, {"core"},
          {"maan", "gma"}, {"experiments", "fleet"}]
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}

ALLOWED_BACK_EDGES = {
    ("chord.incremental", "core.builder"),
    ("chord.fastbuild", "core.builder"),
    ("chord.fastbuild", "core.limiting"),
    ("chord.fastbuild", "core.tree"),
    ("chord.block", "core.limiting"),
    ("chord.broadcast", "core.tree"),
}


def _load_time_imports(tree):
    """Dotted ``repro.*`` targets imported by a module's top-level statements."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_back_edges_are_exactly_the_allowed_ones():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[0] not in RANK:
            continue
        for target in _load_time_imports(ast.parse(path.read_text())):
            segments = target.split(".")
            if segments[0] != "repro" or len(segments) < 2 or segments[1] not in RANK:
                continue
            if RANK[segments[1]] > RANK[parts[0]]:
                found.add((".".join(parts), ".".join(segments[1:])))
    assert found == ALLOWED_BACK_EDGES


ALLOWED_ORPHANS = {
    "fleet.agent": "run with python -m",
    "gma.live": "public API, docs/API.md",
    "maan.softstate": "public API, docs/API.md",
    "net.fanout": "reached through the repro.net package",
    "sim.inproc": "the synchronous fake transport the net-layer tests substitute",
}


def _imported_names(tree):
    """Every dotted name a module imports, anywhere in its body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def _non_test_sources():
    """``(path, tree)`` of every non-``__init__`` module outside ``tests/``."""
    repo = SRC.parent.parent
    for top in (SRC, repo / "benchmarks", repo / "examples"):
        for path in top.rglob("*.py"):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text())


def test_every_module_has_an_importer_outside_its_tests():
    imported = set()
    for _path, tree in _non_test_sources():
        imported.update(_imported_names(tree))
    orphans = set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] in ("__init__", "__main__"):
            continue
        if "repro." + ".".join(parts) not in imported:
            orphans.add(".".join(parts))
    assert orphans == set(ALLOWED_ORPHANS)


# Public names, in any package under src/repro/, that only their own module and
# tests/ mention. Most are documented API (docs/API.md) or paper formulas the
# tests check; the rest is debt. Delete the name or find it a caller — do not
# add to this list.
ALLOWED_ORPHAN_NAMES = {
    "chord.broadcast:broadcast_children",
    "chord.fastbuild:DatTreeArrays.branching_counts",
    "chord.fastbuild:DatTreeArrays.depth_array",
    "chord.fastbuild:DatTreeArrays.subtree_size_array",
    "chord.fof:FofCache.best_toward",
    "chord.fof:FofCache.forget",
    "chord.fof:FofCache.known_nodes",
    "chord.fof:FofMaintainer.refresh_next",
    "chord.hashing:LocalityPreservingHash.invert_approx",
    "chord.idspace:IdSpace.ccw",
    "chord.idspace:IdSpace.contains",
    "chord.idspace:IdSpace.in_closed",
    "chord.idspace:IdSpace.in_half_open_left",
    "chord.idspace:IdSpace.inbound_finger_point",
    "chord.idspace:IdSpace.ring_distance",
    "chord.incremental:DatUpdateEngine.full_build",
    "chord.incremental:DatUpdateEngine.untrack",
    "chord.network:ChordNetwork.add_node_probing",
    "chord.network:ChordNetwork.create_first",
    "chord.network:ChordNetwork.finger_convergence_fraction",
    "chord.network:ChordNetwork.probe_join",
    "chord.network:ChordNetwork.snapshot_finger_tables",
    "chord.node:ChordConfig.rpc_policy",
    "chord.node:ChordProtocolNode.check_predecessor",
    "chord.node:ChordProtocolNode.fix_next_finger",
    "chord.node:ChordProtocolNode.lookup_via",
    "chord.node:ChordProtocolNode.owned_gap",
    "chord.node:ChordProtocolNode.stabilize",
    "chord.node:ChordProtocolNode.start_maintenance",
    "chord.probing:probe_neighbors",
    "chord.probing:probe_split_identifier",  # fast_probing_ids' reference
    "chord.ring:StaticRing.gaps_array",
    "chord.ring:StaticRing.index_of",
    "chord.ring:StaticRing.mean_gap",
    "core.aggregates:HistogramAggregate.bin_edges",
    "core.aggregates:HistogramAggregate.bin_index",
    "core.aggregates:available_aggregates",
    "core.aggregates:register_aggregate",
    "core.analysis:load_rank_array",
    "core.analysis:theoretical_balanced_height_bound",
    "core.analysis:theoretical_balanced_max_branching",
    "core.analysis:theoretical_basic_branching",
    "core.analysis:theoretical_basic_depth",
    "core.analysis:theoretical_basic_internal_count",
    "core.analysis:theoretical_max_branching_basic",
    "core.limiting:FingerLimiter.max_finger_offset",
    "core.limiting:finger_limit",
    "core.multitree:DatForest.apply_event",
    "core.multitree:DatForest.invalidate",
    "core.multitree:DatForest.per_tree_stats",
    "core.redundant:RedundantAggregator.replica_keys",
    "core.service:DatNodeService.owns_key",
    "core.tree:DatTree.internal_nodes",
    "core.tree:DatTree.leaves",
    "core.tree:DatTree.path_to_root",
    "core.tree:DatTree.subtree_sizes",
    # telemetry and fleet: the census taken when the ratchet reached them.
    "fleet.cli:admin_call",
    "fleet.cli:config_from_args",
    "fleet.cli:install_replay_op",
    "fleet.compare:FleetComparisonReport.render_text",
    "fleet.supervisor:AgentHandle.alive",
    "fleet.supervisor:AgentHandle.fail_pending",
    "fleet.supervisor:FleetConfig.agent_argv",
    "fleet.supervisor:FleetSupervisor.broadcast_routes",
    "fleet.supervisor:FleetSupervisor.pick_ident",
    "fleet.supervisor:FleetSupervisor.spawn_agent",
    "telemetry.export:prometheus_lines",
    "telemetry.export:prometheus_text",
    "telemetry.metrics:log_buckets",
    "telemetry.report:render_report",
    "telemetry.report:rolling_imbalance",
    "telemetry.runtime:Telemetry.counter",
    "telemetry.runtime:Telemetry.gauge",
    "telemetry.runtime:Telemetry.histogram",
    "telemetry.spans:Span.trace_context",
    "telemetry.spans:SpanBase.trace_context",
    "telemetry.spans:TraceContext.from_wire",
    "telemetry.spans:TraceContext.to_wire",
    "telemetry.traces:Trace.critical_path",
    # The other packages: the census taken when the ratchet reached them.
    "baselines.centralized:centralized_direct_loads",
    "experiments.churn_overhead:live_tree",
    "experiments.fig7_tree_properties:measure_tree",
    "experiments.fig9_accuracy:Fig9Result.scatter_points",
    "experiments.scale:ProtocolScalePoint.from_run",
    "gma.consumer:Consumer.global_aggregate",
    "gma.consumer:Consumer.monitor_series",
    "gma.live:LiveGridMonitor.actual_aggregate",
    "gma.live:LiveGridMonitor.read_monitoring",
    "gma.live:LiveGridMonitor.set_monitor_time",
    "gma.live:LiveGridMonitor.start_monitoring",
    "gma.monitor:GridMonitor.actual_aggregate",
    "gma.monitor:GridMonitor.require_full_coverage",
    "gma.monitor:GridMonitor.tree_for",
    "gma.producer:Producer.add_sensor",
    "gma.sensors:TraceSensor.read_slot",
    "gma.traces:CpuTrace.shifted",
    "maan.attrs:Resource.value_of",
    "maan.network:MaanNetwork.arc_nodes",
    "maan.network:MaanNetwork.estimate_selectivity",
    "maan.query:MultiAttributeQuery.attribute_names",
    "maan.query:QueryResult.resource_ids",
    "maan.softstate:SoftStateRegistry.sweep",
    "maan.softstate:SoftStateStore.expired_count",
    "maan.softstate:SoftStateStore.live_count",
    "maan.softstate:SoftStateStore.sweep",
    "maan.softstate:SoftStateStore.touch",
    "maan.store:ResourceStore.all_for_attribute",
    "maan.store:ResourceStore.remove_resource",
    "maan.store:ResourceStore.values_for_attribute",
    "net.client:RpcClient.call_peer",
    "net.client:RpcClient.cancel_all",
    "net.envelope:DeferredResponder.abandon",
    "net.envelope:UpcallRegistry.knows",
    "net.envelope:error_reply",
    "net.fanout:Batcher.flush_all",
    "net.retry:RetryPolicy.unbounded",
    "sim.engine:SimulationEngine.schedule_at",
    "sim.inproc:InprocTransport.advance",
    "sim.latency:LanWanLatency.site_of",
    "sim.simnet:SimTransport.is_failed",
    "sim.simnet:SimTransport.recover",
    "sim.transport:Transport.registered_nodes",
    "util.bits:floor_log2",
    "util.rng:derive_rng",
    "util.validation:check_range",
    "workloads.churn:ChurnWorkload.expected_events",
    "workloads.churn:replay_churn",
    "workloads.scenarios:Scenario.trace_generator",
    "workloads.scenarios:available_scenarios",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentioned_names(tree):
    """Every identifier a module mentions: names, attributes, imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def _public_defs(tree):
    """``name`` / ``Class.name`` of a module's public functions and methods."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_every_public_chord_and_core_name_is_mentioned_outside_its_module():
    """Every package's public functions and methods, not only chord's and
    core's: each is mentioned outside its module or is a listed orphan."""
    mentions = {path: set(_mentioned_names(tree)) for path, tree in _non_test_sources()}
    packages = sorted(p.name for p in SRC.iterdir() if (p / "__init__.py").is_file())
    orphans = set()
    for package in packages:
        for path in (SRC / package).glob("*.py"):
            if path.name == "__init__.py":
                continue
            elsewhere = set().union(
                *(names for other, names in mentions.items() if other != path)
            )
            for name in _public_defs(ast.parse(path.read_text())):
                if name.rpartition(".")[2] not in elsewhere:
                    orphans.add(f"{package}.{path.stem}:{name}")
    assert orphans == ALLOWED_ORPHAN_NAMES


# Source rules. A finding is ``(module, enclosing class/def, line)``; modules
# in (or under) ``allowed`` are the ones that implement the guarded primitive.
_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _scoped_nodes(node, scope=""):
    """``(enclosing qualified name, node)`` for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, _SCOPES) else scope
        yield from _scoped_nodes(child, inner)


def _offenders(predicate, allowed):
    """Every node ``predicate`` flags in a module outside the ``allowed`` packages."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(("repro", *parts)).removesuffix(".__init__")
        if any(module == pkg or module.startswith(pkg + ".") for pkg in allowed):
            continue
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if predicate(node):
                found.append((module, scope, node.lineno))
    return found


def _dotted(node):
    """``a.b.c`` for a name/attribute chain (a call or subscript root is dropped)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


_ENTROPY = ("random", "secrets")
_GLOBAL_RNG = {"seed", "rand", "randn", "randint", "random", "random_sample", "choice",
               "shuffle", "permutation", "normal", "uniform"}


def _draws_unseeded(node):
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] in _ENTROPY for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").partition(".")[0] in _ENTROPY
    if not isinstance(node, ast.Call):
        return False
    *owner, name = _dotted(node.func).split(".")
    if name == "default_rng":
        return not node.args and not node.keywords
    return owner[-2:] in (["np", "random"], ["numpy", "random"]) and name in _GLOBAL_RNG


def test_randomness_is_seeded_through_util_rng():
    """Figs. 7-9 replay bit for bit only if every draw flows from a seed that
    ``repro.util.rng`` threads: no stdlib ``random``/``secrets``, no argless
    ``default_rng()``, no call on numpy's global RNG."""
    assert _offenders(_draws_unseeded, allowed=("repro.util.rng",)) == []


_CLOCKS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
           "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
           "clock_gettime_ns"}


def _reads_wall_clock(node):
    if isinstance(node, ast.ImportFrom) and node.module == "time":
        return any(alias.name in _CLOCKS for alias in node.names)
    if not isinstance(node, ast.Call):
        return False
    owner, _, name = _dotted(node.func).rpartition(".")
    if owner == "time":
        return name in _CLOCKS
    calendar = owner.rpartition(".")[2] in ("datetime", "date")
    return calendar and name in ("now", "utcnow", "today")


def test_wall_clock_is_read_only_by_the_fleet_and_the_udp_substrate():
    """Timestamps come from the transport's virtual clock or the bound
    telemetry clock. ``repro.fleet`` runs real processes in real time, and
    ``UdpRpcTransport.now`` is the real-socket substrate's clock, which is the
    wall clock."""
    found = _offenders(_reads_wall_clock, allowed=("repro.fleet",))
    assert [where[:2] for where in found] == [("repro.sim.udprpc", "UdpRpcTransport.now")]


def _calls_transport_directly(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    receiver = _dotted(node.func.value).rpartition(".")[2]
    return node.func.attr in ("call", "expect") and receiver in ("transport", "_transport")


def test_requests_go_through_the_session_layer():
    """Deadlines, retries and fan-out belong to ``repro.net``'s ``RpcClient``;
    a raw ``transport.call``/``expect`` elsewhere bypasses its retry policy and
    per-call counters. ``repro.sim`` implements the primitives."""
    assert _offenders(_calls_transport_directly, allowed=("repro.net", "repro.sim")) == []


_MODULUS_NAMES = {"size", "max_id", "ring_size", "space_size", "id_space_size"}


def _is_ring_modulus(node):
    """``2 ** b``, ``1 << b``, a bare ``size``, or ``<...space...>.size/max_id/bits``."""
    if isinstance(node, ast.BinOp):
        base = node.left.value if isinstance(node.left, ast.Constant) else None
        return (isinstance(node.op, ast.Pow) and base == 2) or (
            isinstance(node.op, ast.LShift) and base == 1)
    if isinstance(node, ast.Name):
        return node.id in _MODULUS_NAMES
    *owner, attr = _dotted(node).split(".")
    return (isinstance(node, ast.Attribute) and attr in ("size", "max_id", "bits")
            and any(part.lower() in ("space", "idspace", "id_space") for part in owner))


def _wraps_ring_by_hand(node):
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.BitAnd):
        return isinstance(node.right, ast.Attribute) and _is_ring_modulus(node.right)
    return isinstance(node.op, ast.Mod) and _is_ring_modulus(node.right)


def test_ring_arithmetic_goes_through_idspace():
    """Clockwise distances and wraparound go through ``IdSpace.wrap``/``cw``/
    ``ccw`` or ``repro.util.bits``; a raw ``%`` by the ring modulus or ``&`` by
    ``space.max_id`` is how a swapped-operand orientation bug lands."""
    allowed = ("repro.chord.idspace", "repro.util.bits")
    assert _offenders(_wraps_ring_by_hand, allowed) == []
