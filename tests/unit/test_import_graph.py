"""Import-graph ratchets: packages import downward, and nothing is orphaned.

Layer order (low to high): ``util, telemetry -> sim -> net -> chord -> core
-> maan, gma -> experiments, fleet``. A back-edge is an import a module runs
at load time (not under ``TYPE_CHECKING``, not inside a function) of a module
in a higher layer. An orphan is a module under ``src/repro/`` that no
non-``__init__`` module under ``src/``, ``benchmarks/`` or ``examples/``
imports: a second implementation only its own tests run. Both lists below
may only shrink: an entry that is not listed fails, and so does a listed
entry that no longer exists.
"""

import ast
import pathlib

import repro

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
    root = pathlib.Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
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
    "telemetry.report": "run with python -m",
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


def test_every_module_has_an_importer_outside_its_tests():
    root = pathlib.Path(repro.__file__).parent
    repo = root.parent.parent
    imported = set()
    for top in (root, repo / "benchmarks", repo / "examples"):
        for path in top.rglob("*.py"):
            if path.name != "__init__.py":
                imported.update(_imported_names(ast.parse(path.read_text())))
    orphans = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] in ("__init__", "__main__") or parts[0] == "devtools":
            continue
        if "repro." + ".".join(parts) not in imported:
            orphans.add(".".join(parts))
    assert orphans == set(ALLOWED_ORPHANS)
