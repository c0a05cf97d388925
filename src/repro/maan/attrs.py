"""Resource and attribute models for MAAN.

A Grid resource is "a list of attribute-value pairs, such as
(<cpu-speed, 2.8GHz>, <memory-size, 1GB>, <cpu-usage, 95%>)" (Sec. 2.2).
Numeric attributes get locality-preserving hashes over a declared domain;
string attributes use uniform (SHA-1) hashing and support exact-match
queries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from repro.chord.hashing import LocalityPreservingHash, sha1_id
from repro.chord.idspace import IdSpace
from repro.errors import SchemaError

__all__ = ["AttributeKind", "AttributeSchema", "Resource"]


class AttributeKind(str, Enum):
    """How an attribute's values map onto the identifier space."""

    NUMERIC = "numeric"
    STRING = "string"


@dataclass(frozen=True)
class AttributeSchema:
    """Declaration of one attribute: name, kind, and (numeric) domain.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"cpu-speed"``.
    kind:
        Numeric (range-queryable) or string (exact-match).
    low, high:
        Domain bounds, required for numeric attributes.
    """

    name: str
    kind: AttributeKind = AttributeKind.NUMERIC
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind is AttributeKind.NUMERIC:
            if self.low is None or self.high is None:
                raise SchemaError(
                    f"numeric attribute {self.name!r} requires low/high bounds"
                )
            if not self.high > self.low:
                raise SchemaError(
                    f"attribute {self.name!r} requires high > low, "
                    f"got [{self.low}, {self.high}]"
                )

    def hasher(self, space: IdSpace) -> Callable[[Any], int]:
        """The value-to-identifier hash for this attribute.

        Numeric attributes get the locality-preserving hash (so ranges are
        contiguous); strings get consistent hashing.
        """
        if self.kind is AttributeKind.NUMERIC:
            return LocalityPreservingHash(space=space, low=self.low, high=self.high)  # type: ignore[arg-type]
        return lambda value: sha1_id(f"{self.name}={value}", space)

    def validate_value(self, value: Any) -> Any:
        """Check (and normalize) one value against this schema."""
        if self.kind is AttributeKind.NUMERIC:
            try:
                return float(value)
            except (TypeError, ValueError):
                raise SchemaError(
                    f"attribute {self.name!r} expects a number, got {value!r}"
                ) from None
        if not isinstance(value, str):
            raise SchemaError(f"attribute {self.name!r} expects a string, got {value!r}")
        return value


@dataclass(frozen=True)
class Resource:
    """One registered Grid resource: a stable id plus attribute values.

    ``resource_id`` is typically the owning node's contact string; MAAN
    stores one replica of the resource record per attribute value.
    """

    resource_id: str
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def matches(self, attribute: str, low: Any, high: Any) -> bool:
        """True if this resource's ``attribute`` value lies in ``[low, high]``."""
        value = self.attributes.get(attribute)
        if value is None:
            return False
        return low <= value <= high
