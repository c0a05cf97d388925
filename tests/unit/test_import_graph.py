"""Import-graph ratchet: packages import downward, except the edges listed.

Layer order (low to high): ``util, telemetry -> sim -> net -> chord -> core
-> maan, gma -> experiments, fleet``. A back-edge is an import a module runs
at load time (not under ``TYPE_CHECKING``, not inside a function) of a module
in a higher layer. The list below may only shrink: an edge that is not
listed fails, and so does a listed edge that no longer exists.
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
