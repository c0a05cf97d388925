"""Protocol-level MAAN: routed registration and queries (paper Sec. 2.2).

:class:`MaanNetwork` resolves everything against a converged ring snapshot;
this module is the live counterpart, running over a transport exactly as
the paper describes:

* **registration** — the resource record is routed to ``successor(H(v))``
  for each attribute value (one Chord lookup + one store message each);
* **range query** — routed to ``successor(H(l))``, then *walked* along
  successor pointers: each node appends its local matches and forwards,
  until the node owning ``H(u)`` replies directly to the originator.

Message kinds: ``maan_store``, ``maan_scan``, ``maan_result``.

Hosts follow the same shape as the DAT service: anything with ``ident``,
``space``, ``transport``, ``upcalls`` plus an injected ``lookup_fn`` (live
Chord lookup) and ``successor_provider`` / ``predecessor_provider``.
:class:`~repro.chord.node.ChordProtocolNode` hosts wire these automatically.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import telemetry
from repro.chord.host import ChordHost
from repro.errors import QueryError, SchemaError
from repro.maan.attrs import AttributeKind, AttributeSchema, Resource
from repro.maan.query import MultiAttributeQuery, QueryResult, RangeQuery
from repro.maan.store import ResourceStore
from repro.net import UNBOUNDED_POLICY, RetryPolicy, RpcClient
from repro.sim.messages import Message

__all__ = ["MaanNodeService"]


class MaanNodeService:
    """The MAAN layer of one live node.

    Parameters
    ----------
    host:
        Object with ``ident``, ``space``, ``transport``, ``upcalls``.
    schemas:
        Declared attributes (shared, identical on every node).
    lookup_fn:
        ``(key, on_result(node, path), on_failure(key)) -> None`` — a live
        Chord lookup. For :class:`ChordProtocolNode` hosts this defaults to
        the node's own ``lookup``.
    successor_provider / predecessor_provider:
        Live neighbor pointers, used by the walk's forward/terminate logic.
        Default to the host's attributes when present.
    retry_policy:
        :class:`~repro.net.RetryPolicy` for the originator's wait on the
        walk result. Defaults to :data:`~repro.net.UNBOUNDED_POLICY` — the
        historical behavior: the walk has no deadline, a lost hop simply
        leaves the query unresolved. Pass a bounded policy to fail over to
        an empty result (and retransmit the scan) under loss.
    """

    def __init__(
        self,
        host: ChordHost,
        schemas: dict[str, AttributeSchema],
        lookup_fn: Callable[..., None] | None = None,
        successor_provider: Callable[[], int] | None = None,
        predecessor_provider: Callable[[], int | None] | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.schemas = dict(schemas)
        self.store = ResourceStore()
        self._hashers = {
            name: schema.hasher(host.space) for name, schema in schemas.items()
        }
        if lookup_fn is None and hasattr(host, "lookup"):
            lookup_fn = host.lookup
        if lookup_fn is None:
            raise QueryError("MaanNodeService requires a lookup_fn")
        self.lookup_fn = lookup_fn
        if successor_provider is None and hasattr(host, "successor"):
            successor_provider = lambda: host.successor  # noqa: E731
        if successor_provider is None:
            raise QueryError("MaanNodeService requires a successor_provider")
        self.successor_provider = successor_provider
        if predecessor_provider is None and hasattr(host, "predecessor"):
            predecessor_provider = lambda: host.predecessor  # noqa: E731
        self.predecessor_provider = predecessor_provider
        self.retry_policy = retry_policy if retry_policy is not None else UNBOUNDED_POLICY
        # Reuse the host's session layer when it has one (ChordProtocolNode
        # hosts do) so the whole node shares a single jitter stream.
        host_net = getattr(host, "net", None)
        self.net: RpcClient = (
            host_net
            if isinstance(host_net, RpcClient)
            else RpcClient(host.transport, host.ident)
        )
        host.upcalls["maan_store"] = self._on_store
        host.upcalls["maan_scan"] = self._on_scan

    def close(self) -> None:
        """Detach from the host: drop this service's upcall registrations."""
        for kind in ("maan_store", "maan_scan"):
            self.host.upcalls.pop(kind, None)

    @property
    def ident(self) -> int:
        return self.host.ident

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        resource: Resource,
        on_done: Callable[[int], None] | None = None,
    ) -> None:
        """Route one store message per declared attribute value.

        ``on_done(stored_count)`` fires after every attribute's owner
        acknowledged placement (lookups that fail are skipped — soft-state
        refresh retries them on the next cycle).
        """
        entries: list[tuple[str, Any, int]] = []
        for attribute, value in resource.attributes.items():
            schema = self.schemas.get(attribute)
            if schema is None:
                continue
            normalized = schema.validate_value(value)
            entries.append((attribute, normalized, self._hashers[attribute](normalized)))
        if not entries:
            raise SchemaError(
                f"resource {resource.resource_id!r} has no declared attributes"
            )
        remaining = {"count": len(entries), "stored": 0}

        def one_done(stored: bool) -> None:
            remaining["count"] -= 1
            if stored:
                remaining["stored"] += 1
            if remaining["count"] == 0 and on_done is not None:
                on_done(remaining["stored"])

        for attribute, normalized, key in entries:
            self._place(attribute, normalized, resource, key, one_done)

    def _place(
        self,
        attribute: str,
        value: Any,
        resource: Resource,
        key: int,
        done: Callable[[bool], None],
    ) -> None:
        def on_owner(owner: int, _path: list[int]) -> None:
            if owner == self.ident:
                self.store.put(attribute, value, resource)
                done(True)
                return
            store_span = (
                telemetry.trace_span(
                    "maan.store_route", node=self.ident, attribute=attribute, owner=owner
                )
                if telemetry.tracing_enabled()
                else telemetry.NULL_SPAN
            )
            with store_span:
                # on_owner runs from the lookup's continuation — a reply
                # event, or register() itself when this node answered the
                # lookup — so the store leg roots its own trace.
                self.net.send(
                    Message(
                        kind="maan_store",
                        source=self.ident,
                        destination=owner,
                        payload={
                            "attribute": attribute,
                            "value": value,
                            "resource_id": resource.resource_id,
                            "attributes": dict(resource.attributes),
                        },
                    )
                )
            done(True)

        def on_failure(_key: int) -> None:
            done(False)

        self.lookup_fn(key, on_owner, on_failure)

    def _on_store(self, message: Message) -> None:
        payload = message.payload
        with telemetry.remote_span(
            message, "maan.store_recv", node=self.ident, attribute=payload["attribute"]
        ):
            resource = Resource(
                resource_id=payload["resource_id"], attributes=payload["attributes"]
            )
            self.store.put(payload["attribute"], payload["value"], resource)
        return None

    # ------------------------------------------------------------------ #
    # Range queries (routed + successor walk)
    # ------------------------------------------------------------------ #

    def range_query(
        self, query: RangeQuery, on_result: Callable[[QueryResult], None]
    ) -> None:
        """Resolve ``query`` over the live overlay.

        ``on_result`` usually runs later, from the walk's reply; a walk that
        starts and ends at this node completes before this call returns.
        """
        schema = self.schemas.get(query.attribute)
        if schema is None:
            raise SchemaError(f"undeclared attribute {query.attribute!r}")
        if schema.kind is not AttributeKind.NUMERIC:
            raise QueryError(f"attribute {query.attribute!r} does not support ranges")
        hasher = self._hashers[query.attribute]
        low_key = hasher(schema.validate_value(query.low))
        high_key = hasher(schema.validate_value(query.high))
        span = telemetry.span(
            "maan.live_query", node=self.ident, attribute=query.attribute
        )
        lookup_hops = 0

        def deliver(reply: Message) -> None:
            payload = reply.payload
            seen: set[str] = set()
            resources = []
            for entry in payload["matches"]:
                if entry["resource_id"] not in seen:
                    seen.add(entry["resource_id"])
                    resources.append(
                        Resource(
                            resource_id=entry["resource_id"],
                            attributes=entry["attributes"],
                        )
                    )
            result = QueryResult(
                resources=resources,
                lookup_hops=lookup_hops,
                nodes_visited=max(payload["visited"] - 1, 0),
            )
            span.finish(
                hops=result.lookup_hops,
                nodes_visited=result.nodes_visited,
                n_resources=len(result.resources),
            )
            telemetry.count("maan_queries_total", kind="live")
            telemetry.observe("maan_query_hops", result.lookup_hops)
            on_result(result)

        def on_timeout(_scan: Message) -> None:
            span.finish(failed=True)
            on_result(QueryResult())  # empty: walk never resolved

        def on_start(start: int, path: list[int]) -> None:
            nonlocal lookup_hops
            lookup_hops = len(path) - 1 if path else 0
            scan = Message(
                kind="maan_scan",
                source=self.ident,
                destination=start,
                payload={
                    "originator": self.ident,
                    "attribute": query.attribute,
                    "low": query.low,
                    "high": query.high,
                    "low_key": low_key,
                    "high_key": high_key,
                    "start": start,
                    "visited": 0,
                    "matches": [],
                },
            )
            # The walk's terminal node answers the original scan directly
            # (``reply_to=token``); the session layer owns the wait.
            scan.payload["token"] = scan.msg_id
            # This continuation usually runs after the query span left the
            # nesting stack, so thread its context explicitly: the walk's
            # hops chain under the live query.
            span.propagate(scan)
            self.net.call(
                scan,
                deliver,
                on_timeout=on_timeout,
                policy=self.retry_policy,
                send=self._on_scan if start == self.ident else None,
            )

        def on_failure(_key: int) -> None:
            span.finish(failed=True)
            on_result(QueryResult())  # empty: lookup failed

        self.lookup_fn(low_key, on_start, on_failure)
        # The query span finishes in a continuation; leave the nesting
        # stack so unrelated spans started meanwhile don't nest under it.
        span.detach()

    def _on_scan(self, message: Message) -> None:
        """One hop of the successor walk.

        The hash interval ``[low_key, high_key]`` never wraps (the hash is
        monotone and ``low <= high``), so plain numeric membership decides
        whether to keep walking:

        * my identifier outside the interval → I am ``successor(high_key)``
          (or the wrapped owner of the interval's tail): scan and reply;
        * the next successor is the walk's start → full lap: reply;
        * the next successor is inside the interval → keep walking;
        * otherwise the next successor owns the tail: one final hop.
        """
        payload = message.payload
        matches = list(payload["matches"])
        for resource in self.store.scan(
            payload["attribute"], payload["low"], payload["high"]
        ):
            matches.append(
                {
                    "resource_id": resource.resource_id,
                    "attributes": dict(resource.attributes),
                }
            )
        visited = payload["visited"] + 1
        low_key, high_key = payload["low_key"], payload["high_key"]
        in_interval = low_key <= self.ident <= high_key
        successor = self.successor_provider()
        with telemetry.remote_span(
            message, "maan.scan_hop", node=self.ident, visited=visited
        ) as hop:
            if (
                not in_interval
                or successor == self.ident
                or successor == payload["start"]
            ):
                # Terminal hop: answer the originator's scan request
                # directly (the reply joins this hop's trace via the send
                # path's automatic threading). A walk that ended at its own
                # originator completes the waiting call in place.
                result = Message(
                    kind="maan_result",
                    source=self.ident,
                    destination=payload["originator"],
                    payload={"matches": matches, "visited": visited},
                    reply_to=payload["token"],
                )
                if result.destination == self.ident:
                    self.net.transport.resolve(result)
                else:
                    self.net.send(result)
                return None
            forward = Message(
                kind="maan_scan",
                source=self.ident,
                destination=successor,
                payload={**payload, "matches": matches, "visited": visited},
            )
            # The copied payload still carries the previous hop's context;
            # replace it so the walk chains hop by hop.
            hop.propagate(forward)
            self.net.send(forward)
        return None

    def multi_attribute_query(
        self,
        query: MultiAttributeQuery,
        on_result: Callable[[QueryResult], None],
    ) -> None:
        """Resolve a conjunction with single-attribute domination (Sec. 2.2).

        The sub-query with minimum selectivity is walked over the live
        overlay; the full conjunction is applied as a filter when the walk
        result arrives — one iteration, ``O(log n + n*s_min)`` hops.
        """
        def selectivity(sub: RangeQuery) -> float:
            schema = self.schemas.get(sub.attribute)
            if schema is None:
                raise SchemaError(f"undeclared attribute {sub.attribute!r}")
            return sub.selectivity(schema.low, schema.high)  # type: ignore[arg-type]

        dominant = min(query.sub_queries, key=selectivity)

        def filter_and_deliver(result: QueryResult) -> None:
            result.resources = [
                resource for resource in result.resources if query.matches(resource)
            ]
            on_result(result)

        self.range_query(dominant, filter_and_deliver)

