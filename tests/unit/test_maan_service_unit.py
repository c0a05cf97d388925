"""Unit tests for MaanNodeService plumbing (injected providers, failures).

The integration suite covers the live-protocol behavior; these tests pin
the service's contracts in isolation using the in-process transport and
hand-rolled lookup functions, including the failure paths that are hard
to trigger on a healthy overlay.
"""

import pytest

from repro.chord.idspace import IdSpace
from repro.core.service import StandaloneDatHost
from repro.errors import QueryError, SchemaError
from repro.maan.attrs import AttributeKind, AttributeSchema, Resource
from repro.maan.query import RangeQuery
from repro.maan.service import MaanNodeService
from tests.inproc import InprocTransport

SCHEMAS = {"cpu": AttributeSchema("cpu", low=0.0, high=100.0)}


def make_service(ident=1, lookup=None, successor=None, predecessor=None):
    transport = InprocTransport()
    host = StandaloneDatHost(ident, IdSpace(16), transport)
    service = MaanNodeService(
        host,
        SCHEMAS,
        lookup_fn=lookup or (lambda key, ok, fail=None: ok(ident, [ident])),
        successor_provider=successor or (lambda: ident),
        predecessor_provider=predecessor or (lambda: ident),
    )
    return transport, host, service


class TestConstruction:
    def test_requires_lookup(self):
        transport = InprocTransport()
        host = StandaloneDatHost(1, IdSpace(16), transport)
        with pytest.raises(QueryError):
            MaanNodeService(host, SCHEMAS, successor_provider=lambda: 1)

    def test_requires_successor_provider(self):
        transport = InprocTransport()
        host = StandaloneDatHost(2, IdSpace(16), transport)
        with pytest.raises(QueryError):
            MaanNodeService(host, SCHEMAS, lookup_fn=lambda *a: None)


class TestRegistration:
    def test_local_placement_when_self_owns(self):
        _transport, _host, service = make_service()
        done: list[int] = []
        service.register(Resource("a", {"cpu": 42.0}), on_done=done.append)
        assert done == [1]
        assert service.store.count("cpu") == 1

    def test_lookup_failure_counts_as_unstored(self):
        def failing_lookup(key, ok, fail=None):
            fail(key)

        _transport, _host, service = make_service(lookup=failing_lookup)
        done: list[int] = []
        service.register(Resource("a", {"cpu": 42.0}), on_done=done.append)
        assert done == [0]
        assert service.store.count() == 0

    def test_no_declared_attributes_rejected(self):
        _transport, _host, service = make_service()
        with pytest.raises(SchemaError):
            service.register(Resource("a", {"gpu": 1.0}))


class TestQueryValidation:
    def test_undeclared_attribute(self):
        _transport, _host, service = make_service()
        with pytest.raises(SchemaError):
            service.range_query(RangeQuery("disk", 0, 1), lambda r: None)

    def test_string_attribute_rejects_range(self):
        transport = InprocTransport()
        host = StandaloneDatHost(3, IdSpace(16), transport)
        service = MaanNodeService(
            host,
            {"os": AttributeSchema("os", kind=AttributeKind.STRING)},
            lookup_fn=lambda key, ok, fail=None: ok(3, [3]),
            successor_provider=lambda: 3,
            predecessor_provider=lambda: 3,
        )
        with pytest.raises(QueryError):
            service.range_query(RangeQuery("os", 0, 1), lambda r: None)

    def test_lookup_failure_yields_empty_result(self):
        def failing_lookup(key, ok, fail=None):
            fail(key)

        _transport, _host, service = make_service(lookup=failing_lookup)
        results = []
        service.range_query(RangeQuery("cpu", 0, 100), results.append)
        assert len(results) == 1
        assert results[0].resources == []


class TestSingleNodeWalk:
    def test_self_owned_full_range(self):
        # One-node overlay: the walk starts and terminates locally.
        _transport, _host, service = make_service()
        service.register(Resource("a", {"cpu": 10.0}))
        service.register(Resource("b", {"cpu": 90.0}))
        results = []
        service.range_query(RangeQuery("cpu", 0.0, 100.0), results.append)
        assert len(results) == 1
        assert results[0].resource_ids() == {"a", "b"}
