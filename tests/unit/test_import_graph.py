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

The source rules at the end keep seeded runs replayable, RPC policy in the
session layer and imports in use: each is one AST pattern plus the modules
allowed to use it.
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
    "net.fanout": "reached through the repro.net package",
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


# Public names, in any package under src/repro/, that no other module under
# src/, benchmarks/ or examples/ mentions, each with the reason it stays. A
# name that only its own tests read is deleted; one that only its own module
# calls is made private.
ALLOWED_ORPHAN_NAMES = {
    "chord.network:ChordNetwork.add_node_probing":
        "the paper's live probing join (Sec. 4); ROADMAP item 5(b) boots with it",
    "core.tree:DatTree.internal_nodes": "DatTree moves as a whole (ROADMAP item 9)",
    "core.tree:DatTree.leaves": "DatTree moves as a whole (ROADMAP item 9)",
    "core.tree:DatTree.path_to_root": "DatTree moves as a whole (ROADMAP item 9)",
    "core.tree:DatTree.subtree_sizes": "DatTree moves as a whole (ROADMAP item 9)",
    "experiments.churn_overhead:live_tree":
        "called by run_churn_overhead; tests hold it to the static builder",
    "experiments.fig7_tree_properties:measure_tree":
        "called by run_fig7_tree_properties; a test measures one tree with it",
    "experiments.scale:ProtocolScalePoint.from_run":
        "called by measure_protocol_point; tests/oracles.py builds references with it",
    "fleet.compare:FleetComparisonReport.render_text": "debt: only tests read it",
    "fleet.supervisor:AgentHandle.alive": "a property the supervisor and its tests read",
    "gma.live:LiveGridMonitor.actual_aggregate":
        "ground truth of the live monitor; ROADMAP item 20 gives it a reader",
    "gma.live:LiveGridMonitor.read_monitoring":
        "continuous-mode read; ROADMAP item 20 gives it a reader",
    "gma.live:LiveGridMonitor.start_monitoring":
        "continuous-mode start; ROADMAP item 20 gives it a reader",
    "gma.monitor:GridMonitor.actual_aggregate": "ground truth the GMA tests compare against",
    "gma.traces:CpuTrace.shifted": "debt: only tests read it",
    "maan.network:MaanNetwork.arc_nodes": "called by its own module's range walks",
    "maan.network:MaanNetwork.estimate_selectivity":
        "called by its own module's multi-attribute walk",
    "maan.query:MultiAttributeQuery.attribute_names": "debt: only tests read it",
    "maan.query:QueryResult.resource_ids": "debt: only tests read it",
    "maan.store:ResourceStore.all_for_attribute": "debt: only tests read it",
    "maan.store:ResourceStore.remove_resource": "debt: only tests read it",
    "maan.store:ResourceStore.values_for_attribute": "debt: only tests read it",
    "net.envelope:UpcallRegistry.knows": "debt: only tests read it",
    "net.envelope:error_reply":
        "debt: builds the wire error envelope RpcClient decodes; no service sends one",
    "net.fanout:Batcher.flush_all": "called by Batcher.close",
    "net.retry:RetryPolicy.unbounded": "debt: only tests read it",
    "sim.engine:SimulationEngine.schedule_at": "debt: only tests read it",
    "sim.latency:LanWanLatency.site_of":
        "the two-tier Grid latency model; ROADMAP item 5(b) gives it a reader",
    "sim.simnet:SimTransport.recover": "fault injection the transport tests drive",
    "sim.transport:Transport.registered_nodes": "debt: only tests read it",
    "telemetry.metrics:log_buckets": "default histogram buckets of its own module",
    "telemetry.report:render_report": "the report CLI's text renderer",
    "telemetry.report:rolling_imbalance": "the report CLI's imbalance series",
    "telemetry.runtime:Telemetry.counter": "called by the module-level count()",
    "telemetry.runtime:Telemetry.gauge": "called by the module-level gauge_set()",
    "telemetry.runtime:Telemetry.histogram": "called by the module-level observe()",
    "telemetry.traces:Trace.critical_path": "called by its own module's summaries",
    "util.bits:floor_log2": "debt: only tests read it",
    "workloads.churn:replay_churn": "debt: only tests read it",
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
    assert orphans == set(ALLOWED_ORPHAN_NAMES)


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
    """Clockwise distances and wraparound go through ``IdSpace.wrap``/``cw``
    or ``repro.util.bits``; a raw ``%`` by the ring modulus or ``&`` by
    ``space.max_id`` is how a swapped-operand orientation bug lands."""
    allowed = ("repro.chord.idspace", "repro.util.bits")
    assert _offenders(_wraps_ring_by_hand, allowed) == []


def _annotation_names(tree):
    """Identifiers inside string annotations (``-> "TraceContext | None"``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for leaf in ast.walk(note) if note is not None else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                expression = ast.parse(leaf.value, mode="eval")
                yield from (n.id for n in ast.walk(expression) if isinstance(n, ast.Name))


def _unused_imports(tree):
    """``(name, line)`` of every name a module imports and never mentions.

    A name counts as mentioned when it is read anywhere: a bare name, the
    root of an attribute chain or an identifier in a string annotation.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted((name, line) for name, line in bound.items() if name not in used)


def test_every_import_is_used():
    """An import a module never reads is dead weight that deletions leave
    behind. ``__init__.py`` files are exempt: their imports are the package's
    re-exports."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found += [(module, *unused) for unused in _unused_imports(ast.parse(path.read_text()))]
    assert found == []
