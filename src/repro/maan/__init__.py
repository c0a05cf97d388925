"""MAAN — Multi-Attribute Addressable Network (paper Sec. 2.2; Cai et al. 2004).

MAAN is the indexing layer of P-GMA: each Grid resource, described by
attribute–value pairs, is registered on the Chord successor of every
attribute value's locality-preserving hash. Range queries then resolve to a
contiguous arc of the ring:

* registration: ``O(m log n)`` routing hops for ``m`` attributes;
* single-attribute range query ``[l, u]``: ``O(log n + k)`` hops where
  ``k`` is the number of nodes between ``successor(H(l))`` and
  ``successor(H(u))``;
* multi-attribute query: single-attribute-dominated resolution using the
  sub-query with minimum selectivity, ``O(log n + n * s_min)`` hops.
"""

from repro.maan.attrs import AttributeSchema, AttributeKind, Resource
from repro.maan.store import ResourceStore
from repro.maan.network import MaanNetwork
from repro.maan.query import RangeQuery, MultiAttributeQuery, QueryResult
from repro.maan.service import MaanNodeService

__all__ = [
    "MaanNodeService",
    "AttributeSchema",
    "AttributeKind",
    "Resource",
    "ResourceStore",
    "MaanNetwork",
    "RangeQuery",
    "MultiAttributeQuery",
    "QueryResult",
]
