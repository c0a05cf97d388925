"""Unit tests for MAAN attribute schemas and resources."""

import pytest

from repro.chord.idspace import IdSpace
from repro.errors import SchemaError
from repro.maan.attrs import AttributeKind, AttributeSchema, Resource


class TestAttributeSchema:
    def test_numeric_requires_bounds(self):
        with pytest.raises(SchemaError):
            AttributeSchema("cpu-speed")
        with pytest.raises(SchemaError):
            AttributeSchema("cpu-speed", low=1.0)

    def test_numeric_bounds_ordered(self):
        with pytest.raises(SchemaError):
            AttributeSchema("x", low=5.0, high=5.0)

    def test_string_needs_no_bounds(self):
        schema = AttributeSchema("os", kind=AttributeKind.STRING)
        assert schema.kind is AttributeKind.STRING

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema("", low=0, high=1)

    def test_numeric_hasher_is_locality_preserving(self):
        schema = AttributeSchema("mem", low=0.0, high=100.0)
        hasher = schema.hasher(IdSpace(16))
        assert hasher(10) < hasher(20) < hasher(90)

    def test_string_hasher_deterministic(self):
        schema = AttributeSchema("os", kind=AttributeKind.STRING)
        hasher = schema.hasher(IdSpace(16))
        assert hasher("linux") == hasher("linux")
        assert hasher("linux") != hasher("freebsd")

    def test_validate_numeric(self):
        schema = AttributeSchema("mem", low=0.0, high=100.0)
        assert schema.validate_value("42") == 42.0
        with pytest.raises(SchemaError):
            schema.validate_value("not-a-number")

    def test_validate_string(self):
        schema = AttributeSchema("os", kind=AttributeKind.STRING)
        assert schema.validate_value("linux") == "linux"
        with pytest.raises(SchemaError):
            schema.validate_value(3.14)


class TestResource:
    def test_matches_range(self):
        resource = Resource("host-1", {"cpu-usage": 95.0})
        assert resource.matches("cpu-usage", 90, 100)
        assert not resource.matches("cpu-usage", 0, 50)
        assert not resource.matches("memory", 0, 100)  # absent attribute

    def test_paper_example_shape(self):
        # Sec. 2.2's example resource.
        resource = Resource(
            "usc-node", {"cpu-speed": 2.8, "memory-size": 1.0, "cpu-usage": 95.0}
        )
        assert resource.matches("cpu-speed", 2.0, 3.0)
