"""DAT015 — batched hot path: no per-message allocation or iteration.

The slab protocol path exists so that 10^5-node simulations do not build a
Python dict (or a :class:`~repro.sim.messages.Message`) per push: one
:class:`~repro.sim.messages.MessageBatch` carries a whole round as column
arrays, and every per-element quantity (wire sizes, payload state, hotspot
accounting) is computed with vectorized array ops. A single ``{...}`` or
``Message(...)`` inside a loop over batch elements silently reintroduces
the O(messages) allocation churn the refactor removed — the code still
passes every exactness test, just 50x slower at 10^5 nodes.

This rule guards the functions that *are* the batched hot path
(``_HOT_FUNCTIONS`` below): inside their ``for``/``while`` loops and
comprehensions, allocating a dict (literal, comprehension, or ``dict()``
call) or constructing a scalar ``Message`` is flagged. Allocation outside
a loop is per-*batch* and fine; deferred bodies (``lambda``, nested
``def``) are skipped because they only run on the explicit slow
path — :meth:`MessageBatch.message` materialization — not per element of
the batched round. Scalar modules (``Transport.send`` and friends) are
legitimately per-message and are not listed.

A loop need not allocate a dict to be per-message work. The same
functions are therefore also checked for the two shapes that turn a
column back into Python objects: iterating ``<array>.tolist()`` (directly
or through ``zip``/``enumerate``), in a ``for`` statement or a
comprehension, and ``np.fromiter(<generator>)``. Both cost one interpreter
round trip per element; at 65 536 nodes they were 96 % of a push round.
An exact fallback that has no array form would carry a line-level
suppression with its reason; today none does.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.datlint.context import FileContext
from repro.devtools.datlint.diagnostics import Diagnostic
from repro.devtools.datlint.registry import Rule, register

#: ``module -> function/method names`` forming the batched per-round hot
#: path. A loop in any of these runs O(batch) times per simulated round.
_HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro.sim.simnet": frozenset({"send_batch", "_deliver_batch"}),
    "repro.sim.messages": frozenset(
        {
            "msg_ids",
            "nbytes",
            "__post_init__",
            "int_digit_counts",
            "block_digit_counts",
            "float_repr_lengths",
            "_digit_counts",
            "take_rows",
        }
    ),
    "repro.core.slab": frozenset(
        {
            "_merged_columns",
            "_state_lengths",
            "push_round",
            "_on_deliver",
        }
    ),
    "repro.telemetry.hotspot": frozenset(
        {
            "record_send_bulk",
            "record_receive_bulk",
            "_record_bulk_locked",
            "_ledger_index_locked",
            "_lookup_locked",
            "load_arrays",
        }
    ),
}

#: Call names whose invocation allocates a per-message object.
_ALLOC_CALLS = {"dict", "Message", "encode_message"}

_LOOP_NODES = (
    ast.For,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

_DEFERRED_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Builtins that pass their arguments' elements through one by one.
_ELEMENTWISE_WRAPPERS = {"zip", "enumerate"}


def _call_name(node: ast.AST) -> str:
    """Last component of a call's target — ``tolist`` for
    ``batch.sizes[rows].tolist()`` — and ``""`` for anything else."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _unpacked_column(iterable: ast.AST) -> ast.AST | None:
    """The ``<array>.tolist()`` call that ``iterable`` walks element by
    element, looking through ``zip``/``enumerate``; ``None`` if there is none."""
    name = _call_name(iterable)
    if name == "tolist":
        return iterable
    if name in _ELEMENTWISE_WRAPPERS:
        assert isinstance(iterable, ast.Call)
        for arg in iterable.args:
            found = _unpacked_column(arg)
            if found is not None:
                return found
    return None


class _LoopAllocFinder(ast.NodeVisitor):
    """Collect dict/Message allocations at loop depth >= 1, and per-element
    iteration over unpacked columns at any depth."""

    def __init__(self) -> None:
        self.depth = 0
        self.hits: list[tuple[ast.AST, str]] = []

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, _DEFERRED_NODES):
            return  # deferred body: runs on the slow path, not in the loop
        # The allocation check runs at the *enclosing* depth: a dict
        # comprehension outside any loop allocates once per batch (fine);
        # the same comprehension inside a loop allocates per element.
        if self.depth > 0:
            if isinstance(node, ast.Dict):
                self.hits.append((node, "dict literal inside a loop"))
            elif isinstance(node, ast.DictComp):
                self.hits.append((node, "dict comprehension inside a loop"))
            elif _call_name(node) in _ALLOC_CALLS:
                self.hits.append((node, f"`{_call_name(node)}(...)` call inside a loop"))
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            column = _unpacked_column(node.iter)
            if column is not None:
                self.hits.append((column, "iteration over `.tolist()`"))
        elif (
            isinstance(node, ast.Call)
            and _call_name(node) == "fromiter"
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ):
            self.hits.append((node, "`fromiter(<generator>)`"))
        entered = isinstance(node, _LOOP_NODES)
        if entered:
            self.depth += 1
        self.generic_visit(node)
        if entered:
            self.depth -= 1


@register
class HotPathAllocRule(Rule):
    code = "DAT015"
    name = "hotpath-alloc"
    rationale = (
        "The batched protocol path (MessageBatch + send_batch + the slab "
        "runner + the bulk hotspot ledger) must do no Python work per "
        "message: a dict or Message built inside one of its loops, a loop "
        "over `<array>.tolist()` or an `np.fromiter(<generator>)` "
        "reintroduces the O(messages) interpreter cost the slab path "
        "removed, degrading 10^5-node runs by an order of magnitude "
        "without failing any exactness test."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        hot = _HOT_FUNCTIONS.get(ctx.module)
        if not hot:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in hot:
                continue
            finder = _LoopAllocFinder()
            for stmt in node.body:
                finder.visit(stmt)
            for alloc_node, what in finder.hits:
                yield self.diagnostic(
                    ctx,
                    alloc_node,
                    f"{what} in batched hot-path function "
                    f"`{node.name}`; hoist it out of the loop or express it "
                    "as a vectorized column over the whole batch",
                )
