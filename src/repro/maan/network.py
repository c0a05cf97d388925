"""The MAAN overlay: registration and query resolution (paper Sec. 2.2).

:class:`MaanNetwork` runs over a converged :class:`~repro.chord.ring.StaticRing`
and per-node :class:`~repro.maan.store.ResourceStore` instances. Routing
costs (finger-route hops, arc-walk lengths) are measured with the real
routing machinery so the Sec. 2.2 complexity claims can be validated
empirically (``benchmarks/bench_maan_routing.py``).
"""

from __future__ import annotations

from typing import Mapping

from repro import telemetry
from repro.chord.fingers import FingerTable
from repro.chord.ring import StaticRing
from repro.chord.routing import finger_route
from repro.errors import QueryError, SchemaError
from repro.maan.attrs import AttributeKind, AttributeSchema, Resource
from repro.maan.query import MultiAttributeQuery, QueryResult, RangeQuery
from repro.maan.store import ResourceStore

__all__ = ["MaanNetwork"]


class MaanNetwork:
    """A MAAN deployment over a converged Chord ring.

    Parameters
    ----------
    ring:
        The overlay membership.
    schemas:
        Declared attributes (name -> schema). Registration and queries may
        only reference declared attributes.
    origin:
        Default node originating registrations/queries (defaults to the
        lowest identifier; any node works — costs differ by O(1)).
    """

    def __init__(
        self,
        ring: StaticRing,
        schemas: Mapping[str, AttributeSchema],
        origin: int | None = None,
    ) -> None:
        if len(ring) == 0:
            raise QueryError("MAAN requires a non-empty ring")
        self.ring = ring
        self.schemas = dict(schemas)
        self.origin = origin if origin is not None else ring.nodes[0]
        self.stores: dict[int, ResourceStore] = {node: ResourceStore() for node in ring}
        self._hashers = {
            name: schema.hasher(ring.space) for name, schema in self.schemas.items()
        }
        self._tables: dict[int, FingerTable] | None = None

    @property
    def tables(self) -> dict[int, FingerTable]:
        """Finger tables shared by all routed operations (built lazily)."""
        if self._tables is None:
            self._tables = self.ring.all_finger_tables()
        return self._tables

    def _schema(self, attribute: str) -> AttributeSchema:
        try:
            return self.schemas[attribute]
        except KeyError:
            raise SchemaError(f"undeclared attribute {attribute!r}") from None

    # ------------------------------------------------------------------ #
    # Registration (O(m log n) hops)
    # ------------------------------------------------------------------ #

    def register(self, resource: Resource, origin: int | None = None) -> int:
        """Register ``resource`` under every declared attribute it carries.

        Returns the total routing hops spent — ``O(m log n)`` for ``m``
        attributes (Sec. 2.2).
        """
        source = origin if origin is not None else self.origin
        total_hops = 0
        registered = 0
        for attribute, value in resource.attributes.items():
            if attribute not in self.schemas:
                continue  # undeclared attributes are not indexed
            schema = self.schemas[attribute]
            normalized = schema.validate_value(value)
            target_key = self._hashers[attribute](normalized)
            route = finger_route(self.ring, source, target_key, tables=self.tables)
            total_hops += route.hops
            self.stores[route.destination].put(attribute, normalized, resource)
            registered += 1
        if registered == 0:
            raise SchemaError(
                f"resource {resource.resource_id!r} has no declared attributes"
            )
        return total_hops

    def deregister(self, resource: Resource) -> None:
        """Remove every record of ``resource`` (same placement math)."""
        for attribute, value in resource.attributes.items():
            if attribute not in self.schemas:
                continue
            schema = self.schemas[attribute]
            normalized = schema.validate_value(value)
            target_key = self._hashers[attribute](normalized)
            node = self.ring.successor(target_key)
            self.stores[node].remove(attribute, resource.resource_id)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def arc_nodes(self, attribute: str, low: float, high: float) -> list[int]:
        """Nodes owning the identifier arc ``[H(low), H(high)]`` for one attribute.

        These are exactly the nodes that can store matching values — the
        ``k`` of the O(log n + k) bound.
        """
        schema = self._schema(attribute)
        if schema.kind is not AttributeKind.NUMERIC:
            raise QueryError(f"attribute {attribute!r} does not support ranges")
        hasher = self._hashers[attribute]
        low_key = hasher(schema.validate_value(low))
        high_key = hasher(schema.validate_value(high))
        # The locality-preserving hash is monotone, so [low_key, high_key]
        # never wraps the circle. The responsible set is every node whose
        # identifier lies in that interval, plus successor(high_key) (which
        # owns the interval's top); computing it from identifiers directly
        # avoids the non-termination a successor walk hits when both
        # endpoints resolve to the same node on (near-)full-domain ranges.
        from bisect import bisect_left, bisect_right

        sorted_nodes = self.ring.nodes
        lo = bisect_left(sorted_nodes, low_key)
        hi = bisect_right(sorted_nodes, high_key)
        nodes = list(sorted_nodes[lo:hi])
        end = self.ring.successor(high_key)
        if not nodes or nodes[-1] != end:
            nodes.append(end)
        return nodes

    def range_query(self, query: RangeQuery, origin: int | None = None) -> QueryResult:
        """Resolve a single-attribute range query (Sec. 2.2).

        Routes to ``successor(H(low))`` (``O(log n)`` hops), then walks
        successors until ``successor(H(high))``, collecting local matches.
        """
        source = origin if origin is not None else self.origin
        schema = self._schema(query.attribute)
        if schema.kind is not AttributeKind.NUMERIC:
            raise QueryError(f"attribute {query.attribute!r} does not support ranges")
        hasher = self._hashers[query.attribute]
        start_key = hasher(schema.validate_value(query.low))
        with telemetry.span(
            "maan.range_query", node=source, attribute=query.attribute
        ) as sp:
            route = finger_route(self.ring, source, start_key, tables=self.tables)
            result = QueryResult(lookup_hops=route.hops)
            seen: set[str] = set()
            for node in self.arc_nodes(query.attribute, query.low, query.high):
                result.nodes_visited += 1
                for resource in self.stores[node].scan(
                    query.attribute, query.low, query.high
                ):
                    if resource.resource_id not in seen:
                        seen.add(resource.resource_id)
                        result.resources.append(resource)
            # The walk's first node was reached by the lookup itself.
            result.nodes_visited = max(result.nodes_visited - 1, 0)
            if sp is not telemetry.NULL_SPAN:
                sp.set(
                    hops=result.lookup_hops,
                    nodes_visited=result.nodes_visited,
                    n_resources=len(result.resources),
                )
                telemetry.count("maan_queries_total", kind="range")
                telemetry.observe("maan_query_hops", result.lookup_hops)
            return result

    def estimate_selectivity(self, query: RangeQuery) -> float:
        """Domain-fraction selectivity of one sub-query (for dominance choice)."""
        schema = self._schema(query.attribute)
        return query.selectivity(schema.low, schema.high)  # type: ignore[arg-type]

    def multi_attribute_query(
        self, query: MultiAttributeQuery, origin: int | None = None
    ) -> QueryResult:
        """Resolve a conjunction with the single-attribute-dominated strategy.

        Chooses the sub-query with minimum selectivity, walks only its arc,
        and filters each candidate against the full conjunction locally —
        one iteration around the ring, ``O(log n + n * s_min)`` hops.
        """
        dominant = min(query.sub_queries, key=self.estimate_selectivity)
        source = origin if origin is not None else self.origin
        schema = self._schema(dominant.attribute)
        hasher = self._hashers[dominant.attribute]
        start_key = hasher(schema.validate_value(dominant.low))
        with telemetry.span(
            "maan.multi_query",
            node=source,
            attribute=dominant.attribute,
            n_sub_queries=len(query.sub_queries),
        ) as sp:
            route = finger_route(self.ring, source, start_key, tables=self.tables)
            result = QueryResult(lookup_hops=route.hops)
            seen: set[str] = set()
            for node in self.arc_nodes(
                dominant.attribute, dominant.low, dominant.high
            ):
                result.nodes_visited += 1
                for resource in self.stores[node].scan(
                    dominant.attribute, dominant.low, dominant.high
                ):
                    if resource.resource_id not in seen and query.matches(resource):
                        seen.add(resource.resource_id)
                        result.resources.append(resource)
            result.nodes_visited = max(result.nodes_visited - 1, 0)
            if sp is not telemetry.NULL_SPAN:
                sp.set(
                    hops=result.lookup_hops,
                    nodes_visited=result.nodes_visited,
                    n_resources=len(result.resources),
                )
                telemetry.count("maan_queries_total", kind="multi")
                telemetry.observe("maan_query_hops", result.lookup_hops)
            return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def total_records(self) -> int:
        """Records across all nodes (== registrations x attributes)."""
        return sum(store.count() for store in self.stores.values())

    def storage_loads(self) -> dict[int, int]:
        """Per-node record counts (storage balance under consistent hashing)."""
        return {node: store.count() for node, store in self.stores.items()}
