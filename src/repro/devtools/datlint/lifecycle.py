"""Resource-lifecycle model: acquisitions vs. releases per class.

The PR-5 transport-teardown leak was exactly this bug class: a class
acquires something with process-wide footprint (a transport registration,
an open file or socket, a constructed service that itself owns such
things) and its ``close()`` never lets go — tests stay green, the next
run on the same process inherits ghost handlers and timers.

The model here answers, per class:

* **acquisitions** — ``self.X = open(...)`` / ``socket.socket(...)`` /
  ``selectors...Selector()``; ``self.X = Cls(...)`` or ``self.X[k] =
  Cls(...)`` where ``Cls`` is a project class that itself defines a
  teardown method; ``<transport>.register(...)`` calls; upcall
  registrations ``host.upcalls["kind"] = ...`` into a *foreign* registry
  (stores into the class's own ``self.upcalls`` are its own table, not a
  borrowed one).
* **releases** — reachable from any teardown entry point
  (:data:`~repro.devtools.datlint.program.TEARDOWN_METHODS`) via the
  class's own methods: a teardown-named call rooted at ``self.X``
  (directly, through a subscript, or through a loop/local bound from
  ``self.X`` / ``self.X.values()`` / ``self.X.pop(...)``), an
  ``.unregister(...)`` call (releases transport registrations), or an
  ``.upcalls.pop(...)`` call (releases upcall registrations).

Ownership transfer is out of scope on purpose: objects received as
parameters are borrowed, not owned, and never demand a release here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.devtools.datlint.program import (
    ClassInfo,
    FunctionInfo,
    ProgramContext,
    TEARDOWN_METHODS,
    attr_chain,
)

__all__ = ["Acquisition", "ClassLifecycle", "analyze_class"]

#: Constructor-like dotted calls that yield an OS-level resource.
RESOURCE_FACTORIES = {
    "open",
    "socket.socket",
    "selectors.DefaultSelector",
    "selectors.SelectSelector",
    "selectors.PollSelector",
}

#: Receiver-name hint for ``.register(...)`` acquisition sites.
_TRANSPORT_HINT = "transport"

#: Method names marking a constructed project class as *closable*.
#: Narrower than :data:`TEARDOWN_METHODS` on purpose: ``leave``/``crash``
#: are also membership events (``ChordProtocolNode``, the fleet
#: supervisor), not resource teardown — only the canonical names create an
#: ownership obligation for the constructing class.
CLOSABLE_MARKERS = {"close", "shutdown", "stop", "__exit__"}


@dataclass
class Acquisition:
    """One resource acquired by a class."""

    kind: str  # "handle" | "service" | "transport-registration" | "upcall"
    attr: str | None  # self attribute holding it (None for register/upcall)
    detail: str  # human-readable description for diagnostics
    node: ast.AST
    method: str


@dataclass
class ClassLifecycle:
    """Acquisitions, releases, and teardown reachability for one class."""

    info: ClassInfo
    acquisitions: list[Acquisition]
    released_attrs: set[str]
    releases_registration: bool
    releases_upcalls: bool
    has_teardown: bool

    def leaked(self) -> list[Acquisition]:
        """Acquisitions with no matching release on any teardown path."""
        leaks = []
        for acq in self.acquisitions:
            if acq.kind in ("handle", "service"):
                if acq.attr is not None and acq.attr in self.released_attrs:
                    continue
            elif acq.kind == "transport-registration":
                if self.releases_registration:
                    continue
            elif acq.kind == "upcall":
                if self.releases_upcalls:
                    continue
            leaks.append(acq)
        return leaks


def _is_self_rooted(chain: list[str] | None) -> bool:
    return chain is not None and chain and chain[0] == "self"


def _collect_acquisitions(
    program: ProgramContext, info: ClassInfo
) -> list[Acquisition]:
    acquisitions: list[Acquisition] = []
    for method_name, fn in info.methods.items():
        for node in ast.walk(fn.node):
            # self.X = <factory>() / self.X[k] = <factory>()
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                chain = attr_chain(target)
                if _is_self_rooted(chain) and len(chain or []) == 2:
                    attr = (chain or [])[1]
                    acq = _classify_value(program, info, node.value)
                    if acq is not None:
                        kind, detail = acq
                        acquisitions.append(
                            Acquisition(
                                kind=kind,
                                attr=attr,
                                detail=detail,
                                node=node,
                                method=method_name,
                            )
                        )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver_chain = attr_chain(func.value)
            # <transport>.register(node, handler)
            if func.attr == "register" and receiver_chain is not None:
                receiver = receiver_chain[-1].lstrip("_")
                if _TRANSPORT_HINT in receiver:
                    acquisitions.append(
                        Acquisition(
                            kind="transport-registration",
                            attr=None,
                            detail=f"`{'.'.join(receiver_chain)}.register(...)`",
                            node=node,
                            method=method_name,
                        )
                    )
        # host.upcalls["kind"] = handler into a foreign registry.
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
            ):
                continue
            container = node.targets[0].value
            chain = attr_chain(container)
            if chain is None or chain[-1] != "upcalls":
                continue
            if chain[:2] == ["self", "upcalls"] and len(chain) == 2:
                continue  # the class's own registry dies with the class
            acquisitions.append(
                Acquisition(
                    kind="upcall",
                    attr=None,
                    detail=f"upcall registration `{'.'.join(chain)}[...]`",
                    node=node,
                    method=method_name,
                )
            )
    return acquisitions


def _classify_value(
    program: ProgramContext, info: ClassInfo, value: ast.expr
) -> tuple[str, str] | None:
    """Classify an assigned value as a closable resource, if it is one."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    dotted = None
    if isinstance(func, ast.Name):
        dotted = func.id
    elif isinstance(func, ast.Attribute):
        chain = attr_chain(func)
        dotted = ".".join(chain) if chain else None
    if dotted in RESOURCE_FACTORIES:
        return ("handle", f"`{dotted}(...)`")
    constructed = program.resolve_constructed_class(info.module, value)
    if constructed is not None:
        cls = program.classes[constructed]
        if any(
            name in CLOSABLE_MARKERS
            for base in program.mro(cls)
            for name in base.methods
        ):
            return ("service", f"`{cls.name}(...)` (defines teardown)")
    return None


def _reachable_methods(info: ClassInfo, program: ProgramContext) -> list[FunctionInfo]:
    """Methods reachable from the class's teardown entries via self-calls."""
    entries = [m for m in info.methods if m in TEARDOWN_METHODS]
    seen: set[str] = set()
    order: list[FunctionInfo] = []
    stack = list(entries)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = program.lookup_method(info, name)
        if fn is None:
            continue
        order.append(fn)
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                stack.append(node.func.attr)
    return order


def _collect_releases(
    info: ClassInfo, program: ProgramContext
) -> tuple[set[str], bool, bool]:
    released: set[str] = set()
    releases_registration = False
    releases_upcalls = False
    for fn in _reachable_methods(info, program):
        # Loop variables bound from self.X (or self.X.values()/.items()).
        loop_bindings: dict[str, str] = {}
        local_bindings: dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if isinstance(iter_expr, ast.Call):
                    if isinstance(iter_expr.func, ast.Attribute) and iter_expr.func.attr in (
                        "values",
                        "items",
                    ):
                        iter_expr = iter_expr.func.value
                    elif (
                        isinstance(iter_expr.func, ast.Name)
                        and iter_expr.func.id in ("list", "tuple", "sorted", "reversed")
                        and iter_expr.args
                    ):
                        iter_expr = iter_expr.args[0]
                        if isinstance(iter_expr, ast.Call) and isinstance(
                            iter_expr.func, ast.Attribute
                        ) and iter_expr.func.attr in ("values", "items"):
                            iter_expr = iter_expr.func.value
                chain = attr_chain(iter_expr)
                if _is_self_rooted(chain) and len(chain or []) >= 2:
                    target = node.target
                    if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                        target = target.elts[1]  # (key, value) unpacking
                    if isinstance(target, ast.Name):
                        loop_bindings[target.id] = (chain or [])[1]
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                chain = attr_chain(node.value)
                if _is_self_rooted(chain) and len(chain or []) >= 2:
                    local_bindings[node.targets[0].id] = (chain or [])[1]
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            receiver_chain = attr_chain(node.func.value)
            if method == "unregister":
                releases_registration = True
                continue
            if (
                method == "pop"
                and receiver_chain is not None
                and receiver_chain[-1] == "upcalls"
            ):
                releases_upcalls = True
                continue
            if method not in TEARDOWN_METHODS and method != "cancel":
                continue
            if receiver_chain is None:
                continue
            root = receiver_chain[0]
            if root == "self" and len(receiver_chain) >= 2:
                released.add(receiver_chain[1])
            elif root in loop_bindings:
                released.add(loop_bindings[root])
            elif root in local_bindings:
                released.add(local_bindings[root])
    return released, releases_registration, releases_upcalls


def analyze_class(program: ProgramContext, info: ClassInfo) -> ClassLifecycle:
    """Build the lifecycle picture for one class."""
    acquisitions = _collect_acquisitions(program, info)
    released, releases_registration, releases_upcalls = _collect_releases(
        info, program
    )
    has_teardown = any(m in TEARDOWN_METHODS for m in info.methods)
    return ClassLifecycle(
        info=info,
        acquisitions=acquisitions,
        released_attrs=released,
        releases_registration=releases_registration,
        releases_upcalls=releases_upcalls,
        has_teardown=has_teardown,
    )
